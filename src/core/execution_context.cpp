#include "core/execution_context.hpp"

#include "common/error.hpp"

namespace mlr {

ExecutionContext::ExecutionContext(const lamino::Operators& ops,
                                   ExecutionOptions opt) {
  MLR_CHECK(opt.gpus >= 1);
  if (opt.memo.enable) {
    db_ = std::make_unique<memo::MemoDb>(opt.db, &net_, &memnode_);
    if (opt.db_seed != nullptr)
      db_->import_entries(*opt.db_seed, opt.db_values);
  }
  // One key encoder for the whole run: every device wrapper keys (and
  // trains) through the same registry, so gpus>1 trains on the single-GPU
  // training set. A serving session goes one step further and shares the
  // service's registry across every job.
  registry_ = opt.registry != nullptr
                  ? opt.registry
                  : std::make_shared<encoder::EncoderRegistry>(
                        encoder::EncoderConfig{.input_hw = opt.memo.encoder_hw,
                                               .embed_dim = opt.memo.key_dim});
  for (int g = 0; g < opt.gpus; ++g) {
    devices_.push_back(std::make_unique<sim::Device>(g));
    wrappers_.push_back(std::make_unique<memo::MemoizedLamino>(
        ops, opt.memo, devices_.back().get(), db_.get(), registry_));
  }
  std::vector<memo::MemoizedLamino*> ptrs;
  ptrs.reserve(wrappers_.size());
  for (auto& w : wrappers_) ptrs.push_back(w.get());
  exec_ = std::make_unique<memo::StageExecutor>(std::move(ptrs));
  ThreadPool* pool = opt.shared_pool;
  if (pool == nullptr && opt.threads > 0) {
    pool_ = std::make_unique<ThreadPool>(opt.threads);
    pool = pool_.get();
  }
  if (pool != nullptr) {
    exec_->set_pool(pool);
    // The wrappers' built-in engines follow the same pool so direct
    // wrapper.run_stage() calls behave identically.
    for (auto& w : wrappers_) w->executor().set_pool(pool);
  }
}

ExecutionContext::~ExecutionContext() = default;

}  // namespace mlr
