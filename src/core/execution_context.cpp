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
  std::vector<sim::Device*> devices;
  for (int g = 0; g < opt.gpus; ++g) {
    devices_.push_back(std::make_unique<sim::Device>(g));
    devices.push_back(devices_.back().get());
  }
  // One key encoder for the whole run: every device keys (and trains)
  // through the layer's registry, so gpus>1 trains on the single-GPU
  // training set. A serving session goes one step further and hands in the
  // service's registry, shared by every job.
  memo_ = std::make_unique<memo::MemoizedLamino>(
      ops, opt.memo, std::move(devices), db_.get(), opt.registry);
  ThreadPool* pool = opt.shared_pool;
  if (pool == nullptr && opt.threads > 0) {
    pool_ = std::make_unique<ThreadPool>(opt.threads);
    pool = pool_.get();
  }
  memo_->set_pool(pool);
}

ExecutionContext::~ExecutionContext() = default;

}  // namespace mlr
