#include "convbound/serve/session_pool.hpp"

#include "convbound/util/check.hpp"

namespace convbound {

namespace {

std::string pool_key(const std::string& model, std::int64_t bucket) {
  return model + "|" + std::to_string(bucket);
}

}  // namespace

// ------------------------------------------------------- ServeSession ----

ServeSession::ServeSession(const ServedModel& model, std::int64_t bucket,
                           const MachineSpec& spec, Planner& planner,
                           const PlannerOptions& plan_opts)
    : model_(&model),
      bucket_(bucket),
      // Serial block draining: each in-flight batch occupies exactly one
      // host thread, so concurrent batches never oversubscribe the cores.
      gpu_(spec, &ThreadPool::global(), ExecMode::kSerial),
      plan_opts_(plan_opts),
      planner_(&planner),
      executor_(workspace_) {
  CB_CHECK_MSG(bucket_ >= 1, "batch bucket must be >= 1");
}

void ServeSession::warm() {
  plans_.clear();
  plans_.reserve(model_->layers.size());
  for (const auto& layer : model_->layers)
    plans_.push_back(planner_->plan(gpu_, shape_at_batch(layer.shape, bucket_),
                                    plan_opts_));
  // One throwaway pass touches every workspace geometry (layer outputs and
  // adapter staging buffers), so serving starts allocation-free.
  Workspace::Lease in = workspace_.acquire(bucket_, model_->input_c(),
                                           model_->input_h(),
                                           model_->input_w());
  in.tensor().fill(0.0f);
  (void)run(in.tensor());
}

ServeSession::BatchResult ServeSession::run(
    const Tensor4<float>& batch_input) {
  CB_CHECK_MSG(plans_.size() == model_->layers.size(),
               "session for '" << model_->name << "' not warmed");
  CB_CHECK_MSG(batch_input.n() == bucket_,
               "batch input has " << batch_input.n()
                                  << " lanes, session bucket is " << bucket_);
  BatchResult result;
  Workspace::Lease cur;  // holds the adapter output between layers
  const Tensor4<float>* input = &batch_input;
  for (std::size_t i = 0; i < plans_.size(); ++i) {
    ConvExecutor::Execution ex =
        executor_.execute(gpu_, plans_[i], *input, model_->weights[i]);
    result.stats += ex.stats;
    if (i + 1 == plans_.size()) {
      result.output = std::move(ex.output);
      break;
    }
    const ConvShape& next = model_->layers[i + 1].shape;
    Workspace::Lease adapted =
        workspace_.acquire(bucket_, next.cin, next.hin, next.win);
    adapt_activation(ex.output.tensor(), adapted.tensor());
    cur = std::move(adapted);  // releases the previous adapter buffer
    input = &cur.tensor();
  }
  return result;
}

// -------------------------------------------------------- SessionPool ----

SessionPool::Guard::~Guard() {
  if (pool_ != nullptr) pool_->release(session_);
}

void SessionPool::add(std::unique_ptr<ServeSession> session) {
  CB_CHECK(session != nullptr);
  const std::string key =
      pool_key(session->model().name, session->bucket());
  MutexLock lock(mu_);
  replicas_[key].push_back(Replica{std::move(session), false});
}

SessionPool::Guard SessionPool::acquire(const std::string& model,
                                        std::int64_t bucket) {
  const std::string key = pool_key(model, bucket);
  UniqueLock lock(mu_);
  const auto it = replicas_.find(key);
  CB_CHECK_MSG(it != replicas_.end(),
               "no session registered for " << key);
  for (;;) {
    for (auto& r : it->second) {
      if (!r.busy) {
        r.busy = true;
        return Guard(this, r.session.get());
      }
    }
    cv_.wait(lock);
  }
}

void SessionPool::release(ServeSession* session) {
  {
    MutexLock lock(mu_);
    for (auto& [key, reps] : replicas_) {
      for (auto& r : reps) {
        if (r.session.get() == session) {
          r.busy = false;
          goto released;
        }
      }
    }
  released:;
  }
  cv_.notify_all();
}

std::size_t SessionPool::sessions() const {
  MutexLock lock(mu_);
  std::size_t n = 0;
  for (const auto& [key, reps] : replicas_) n += reps.size();
  return n;
}

std::size_t SessionPool::workspace_buffers() const {
  MutexLock lock(mu_);
  std::size_t n = 0;
  for (const auto& [key, reps] : replicas_)
    for (const auto& r : reps) n += r.session->workspace().buffers();
  return n;
}

std::uint64_t SessionPool::workspace_bytes() const {
  MutexLock lock(mu_);
  std::uint64_t n = 0;
  for (const auto& [key, reps] : replicas_)
    for (const auto& r : reps) n += r.session->workspace().bytes_reserved();
  return n;
}

}  // namespace convbound
