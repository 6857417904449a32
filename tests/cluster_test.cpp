// Tests for multi-GPU chunk distribution: result equivalence across GPU
// counts, speedup within a node, redistribution cost across nodes, fabric
// utilization and query-latency contention.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "common/hash.hpp"
#include "lamino/phantom.hpp"

namespace mlr::cluster {
namespace {

struct Fixture {
  lamino::Geometry geom = lamino::Geometry::cube(12);
  lamino::Operators ops{geom};
  Array3D<cfloat> u, dhat;
  Fixture() {
    u = lamino::to_complex(lamino::make_phantom(
        geom.object_shape(), lamino::PhantomKind::BrainTissue, 21));
    dhat = Array3D<cfloat>(geom.data_shape());
    ops.forward_freq(u, dhat);
  }
};

/// Options for a `gpus`-device cluster, memoization off unless `mc` says.
ExecutionOptions opts(int gpus, memo::MemoConfig mc = {.enable = false},
                      memo::MemoDbConfig db = {}) {
  return {.gpus = gpus, .memo = mc, .db = db};
}

TEST(Cluster, NodeTopology) {
  Fixture f;
  Cluster c(f.ops, opts(10));
  EXPECT_EQ(c.num_gpus(), 10);
  EXPECT_EQ(c.num_nodes(), 3);  // 4 + 4 + 2
  EXPECT_EQ(c.node_of(0), 0);
  EXPECT_EQ(c.node_of(4), 1);
  EXPECT_EQ(c.node_of(9), 2);
}

TEST(Cluster, StageResultIndependentOfGpuCount) {
  // Distribution must not change numerics: same output for 1, 2, 5 GPUs.
  Fixture f;
  const auto& g = f.geom;
  auto run = [&](int gpus) {
    Cluster c(f.ops, opts(gpus));
    Array3D<cfloat> u1(g.u1_shape());
    (void)c.context().memo().run_fu1d(f.u, u1, /*adjoint=*/false, 3, 0.0);
    return u1;
  };
  auto digest = [](const Array3D<cfloat>& a) {
    return fnv1a_bytes(a.data(), std::size_t(a.bytes()));
  };
  const u64 d1 = digest(run(1));
  EXPECT_EQ(digest(run(2)), d1);
  EXPECT_EQ(digest(run(5)), d1);
}

TEST(Cluster, MoreGpusFasterWithinNode) {
  Fixture f;
  auto time_for = [&](int gpus) {
    Cluster c(f.ops, opts(gpus, {.enable = false, .work_scale = 1.0e6}));
    return c.forward_adjoint_pass(f.u, f.dhat, 1, 0.0);
  };
  const double t1 = time_for(1), t2 = time_for(2), t4 = time_for(4);
  EXPECT_LT(t2, t1);
  EXPECT_LT(t4, t2);
  // Sub-linear: speedup below ideal due to redistribution.
  EXPECT_GT(t4, t1 / 4.0);
}

TEST(Cluster, CrossNodeScalingDiminishes) {
  // 4 → 8 GPUs crosses a node boundary: the redistribution moves to the
  // fabric and the marginal gain collapses (Fig 14's plateau).
  Fixture f;
  auto time_for = [&](int gpus) {
    Cluster c(f.ops, opts(gpus, {.enable = false, .work_scale = 1.0e6}));
    return c.forward_adjoint_pass(f.u, f.dhat, 1, 0.0);
  };
  const double t2 = time_for(2), t4 = time_for(4), t8 = time_for(8);
  const double gain_24 = t2 / t4;
  const double gain_48 = t4 / t8;
  EXPECT_LT(gain_48, gain_24);
}

TEST(Cluster, RedistributionCostsGrowAcrossNodes) {
  Fixture f;
  Cluster intra(f.ops, opts(4));
  Cluster inter(f.ops, opts(8));
  const double bytes = 1.0e9;
  const double t_intra = intra.redistribute(bytes, 0.0);
  const double t_inter = inter.redistribute(bytes, 0.0);
  EXPECT_GT(t_inter, t_intra);
}

TEST(Cluster, SingleGpuRedistributionFree) {
  Fixture f;
  Cluster c(f.ops, opts(1));
  EXPECT_DOUBLE_EQ(c.redistribute(1.0e9, 5.0), 5.0);
}

TEST(Cluster, MemoizedClusterSharesOneDatabase) {
  Fixture f;
  Cluster c(f.ops,
            opts(2, {.enable = true, .tau = 0.9, .key_dim = 16,
                     .encoder_hw = 16},
                 {.key_dim = 16, .tau = 0.9,
                  .ivf = {.nlist = 2, .train_size = 8}}));
  auto& ctx = c.context();
  Array3D<cfloat> u1(f.geom.u1_shape());
  (void)ctx.memo().run_fu1d(f.u, u1, /*adjoint=*/false, 3, 0.0);
  const std::size_t chunks = lamino::make_chunks(f.geom.n1, 3).size();
  // Every chunk either inserted into the shared DB or served from it,
  // regardless of which GPU owned it.
  const auto& mc = ctx.memo().counters();
  EXPECT_EQ(ctx.db()->entries(memo::OpKind::Fu1D) + mc.db_hit + mc.cache_hit,
            chunks);
}

TEST(Cluster, GpusShareOneEncoderRegistry) {
  // The memo layer keys (and trains) every device through its one
  // EncoderRegistry, so a multi-GPU run trains ONE encoder on the single-GPU
  // training set.
  Fixture f;
  Cluster c(f.ops,
            opts(3, {.enable = true, .tau = 0.9, .key_dim = 16,
                     .encoder_hw = 16},
                 {.key_dim = 16, .tau = 0.9,
                  .ivf = {.nlist = 2, .train_size = 8}}));
  auto& ml = c.context().memo();
  ml.set_bypass(true);
  ml.set_collect_samples(true, 64);
  Array3D<cfloat> u1(f.geom.u1_shape());
  (void)ml.run_fu1d(f.u, u1, /*adjoint=*/false, 2, 0.0);
  // Collection is global-chunk-ordered into the one registry: the whole
  // stage, not a per-GPU share.
  EXPECT_EQ(ml.collected_samples(), lamino::make_chunks(f.geom.n1, 2).size());
  ml.set_collect_samples(false);
  (void)ml.train_encoder_from_collected(8);
  EXPECT_TRUE(ml.key_encoder().quantized());
}

TEST(Cluster, FabricUtilizationGrowsWithGpus) {
  // More GPUs → more memoization + redistribution traffic on the shared
  // fabric (Fig 15).
  Fixture f;
  auto util = [&](int gpus) {
    Cluster c(f.ops, opts(gpus, {.enable = false, .work_scale = 1.0e6}));
    const double done = c.forward_adjoint_pass(f.u, f.dhat, 1, 0.0);
    return c.fabric().utilization(done);
  };
  EXPECT_GT(util(8), util(4));
  EXPECT_GT(util(16), util(8));
}

/// FNV-1a over three chained forward-adjoint passes: each pass's completion
/// time and four per-op seconds as raw bits, then the fabric utilization at
/// the end and, with memoization on, the DB's query-latency sample count.
/// `memo` selects Figs 15/16's configuration (encoder-gated keys, tau 0.5);
/// off, the Fig 14 one.
u64 pass_digest(Fixture& f, int gpus, bool memo) {
  const double s = 1024.0 / double(f.geom.n1);
  const double ws = s * s * s;
  const memo::MemoConfig mc =
      memo ? memo::MemoConfig{.enable = true, .tau = 0.5, .key_dim = 16,
                              .encoder_hw = 16, .work_scale = ws,
                              .oracle_similarity = false}
           : memo::MemoConfig{.enable = false, .work_scale = ws};
  const memo::MemoDbConfig dbc =
      memo ? memo::MemoDbConfig{.key_dim = 16, .tau = 0.5, .value_scale = ws}
           : memo::MemoDbConfig{};
  Cluster c(f.ops, opts(gpus, mc, dbc));
  u64 h = kFnvOffsetBasis;
  auto pod = [&h](const auto& v) { h = fnv1a(h, &v, sizeof v); };
  sim::VTime t = 0;
  std::vector<double> per_op;
  for (int p = 0; p < 3; ++p) {
    t = c.forward_adjoint_pass(f.u, f.dhat, 1, t, &per_op);
    pod(t);
    for (const double x : per_op) pod(x);
  }
  pod(c.fabric().utilization(t));
  if (memo) pod(c.context().db()->timing().query_latency_us.count());
  return h;
}

TEST(Cluster, ForwardAdjointPassGolden) {
  // Recorded when Cluster still wired its own devices, DB, encoder registry
  // and engine. A change that moves one changed behaviour: fix it, do not
  // re-record.
  constexpr struct {
    int gpus;
    bool memo;
    u64 digest;
  } kGolden[] = {
      {1, false, 0xfafbb4d0d8be8f76ull}, {2, false, 0xb4f58a470574fb72ull},
      {4, false, 0xc2f804709cb867e5ull}, {8, false, 0x0eee44528caa0b8aull},
      {16, false, 0x765aded8c6475bc8ull}, {1, true, 0x608e2500efb49ed3ull},
      {2, true, 0xb5db9545366f9b9full},  {4, true, 0x68915b74da4351e9ull},
      {8, true, 0xcc723c599d8be257ull},  {16, true, 0xb9468a42da56ef56ull},
  };
  Fixture f;
  for (const auto& gd : kGolden) {
    const u64 got = pass_digest(f, gd.gpus, gd.memo);
    EXPECT_EQ(got, gd.digest) << "gpus=" << gd.gpus << " memo=" << gd.memo
                              << " digest=0x" << std::hex << got;
  }
}

}  // namespace
}  // namespace mlr::cluster
