#include "convbound/serve/stats.hpp"

#include <algorithm>

#include "convbound/util/check.hpp"

namespace convbound {

namespace {

/// The histogram-derived latency fields, shared by the single-device
/// snapshot and the fleet merge so every consumer sees the same numbers.
void fill_latency_fields(StatsSnapshot& s) {
  s.latency_p50 = s.latency.quantile(0.50);
  s.latency_p95 = s.latency.quantile(0.95);
  s.latency_p99 = s.latency.quantile(0.99);
  s.latency_max = s.latency.max_value();
  s.latency_mean = s.latency.mean();
  s.queue_wait_p50 = s.queue_wait.quantile(0.50);
  s.queue_wait_p99 = s.queue_wait.quantile(0.99);
  s.queue_wait_mean = s.queue_wait.mean();
  s.batch_delay_p50 = s.batch_delay.quantile(0.50);
  s.batch_delay_p99 = s.batch_delay.quantile(0.99);
  s.batch_delay_mean = s.batch_delay.mean();
  s.exec_p50 = s.exec.quantile(0.50);
  s.exec_p99 = s.exec.quantile(0.99);
  s.exec_mean = s.exec.mean();
}

void fill_class_latency_fields(ClassSnapshot& c) {
  c.latency_p50 = c.latency.quantile(0.50);
  c.latency_p99 = c.latency.quantile(0.99);
  c.latency_mean = c.latency.mean();
  c.latency_max = c.latency.max_value();
  c.queue_wait_p99 = c.queue_wait.quantile(0.99);
  c.batch_delay_p99 = c.batch_delay.quantile(0.99);
  c.exec_p99 = c.exec.quantile(0.99);
}

}  // namespace

double shard_imbalance_ratio(const std::vector<std::size_t>& shard_values) {
  if (shard_values.empty()) return 0;
  std::size_t max = 0;
  std::size_t total = 0;
  for (std::size_t v : shard_values) {
    max = std::max(max, v);
    total += v;
  }
  if (total == 0) return 0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(shard_values.size());
  return static_cast<double>(max) / mean;
}

StatsSnapshot merge_snapshots(const std::vector<StatsSnapshot>& parts) {
  StatsSnapshot s;
  std::map<int, std::uint64_t> histogram;
  double makespan = 0;
  for (const StatsSnapshot& p : parts) {
    s.submitted += p.submitted;
    s.completed += p.completed;
    s.rejected += p.rejected;
    s.quota_rejected += p.quota_rejected;
    s.shutdown_rejected += p.shutdown_rejected;
    s.expired += p.expired;
    s.failed += p.failed;
    s.batches += p.batches;
    s.sim_seconds += p.sim_seconds;
    s.wall_seconds = std::max(s.wall_seconds, p.wall_seconds);
    // Depth at snapshot time SUMS: the fleet's queued population is the
    // total across device front doors. Only the high-water mark is a max —
    // "deepest any single door ever got" (summing per-part marks taken at
    // different instants would overstate it).
    s.queue_depth += p.queue_depth;
    s.max_queue_depth = std::max(s.max_queue_depth, p.max_queue_depth);
    if (!p.shard_depths.empty()) {
      if (s.shard_depths.size() < p.shard_depths.size())
        s.shard_depths.resize(p.shard_depths.size(), 0);
      for (std::size_t i = 0; i < p.shard_depths.size(); ++i)
        s.shard_depths[i] += p.shard_depths[i];
    }
    if (!p.shard_max_depths.empty()) {
      if (s.shard_max_depths.size() < p.shard_max_depths.size())
        s.shard_max_depths.resize(p.shard_max_depths.size(), 0);
      for (std::size_t i = 0; i < p.shard_max_depths.size(); ++i)
        s.shard_max_depths[i] += p.shard_max_depths[i];
    }
    s.plans_memoised += p.plans_memoised;
    s.plan_misses_after_warm += p.plan_misses_after_warm;
    s.workspace_buffers += p.workspace_buffers;
    s.workspace_bytes += p.workspace_bytes;
    makespan = std::max(makespan, p.sim_seconds);
    // Bucket-wise addition: the merged histogram is exactly the histogram
    // of the combined request population, so the fleet percentiles below
    // are real percentiles — not the completed-weighted average of
    // per-device percentiles this merge used to report, which understated
    // a heterogeneous fleet's tail whenever the slow device held it.
    s.latency.merge(p.latency);
    s.queue_wait.merge(p.queue_wait);
    s.batch_delay.merge(p.batch_delay);
    s.exec.merge(p.exec);
    for (const auto& [size, count] : p.batch_histogram)
      histogram[size] += count;
    // Per-class slices merge the same way: counters sum, histograms add
    // bucket-wise, so per-class fleet percentiles stay true percentiles.
    for (const auto& [name, part] : p.classes) {
      ClassSnapshot& c = s.classes[name];
      c.submitted += part.submitted;
      c.completed += part.completed;
      c.rejected += part.rejected;
      c.quota_rejected += part.quota_rejected;
      c.shutdown_rejected += part.shutdown_rejected;
      c.expired += part.expired;
      c.latency.merge(part.latency);
      c.queue_wait.merge(part.queue_wait);
      c.batch_delay.merge(part.batch_delay);
      c.exec.merge(part.exec);
    }
  }
  s.shard_imbalance = shard_imbalance_ratio(s.shard_max_depths);
  fill_latency_fields(s);
  for (auto& [name, c] : s.classes) fill_class_latency_fields(c);
  if (s.wall_seconds > 0)
    s.throughput_rps = static_cast<double>(s.completed) / s.wall_seconds;
  if (makespan > 0)
    s.modelled_rps = static_cast<double>(s.completed) / makespan;
  std::uint64_t grouped = 0;
  for (const auto& [size, count] : histogram) {
    s.batch_histogram.emplace_back(size, count);
    grouped += static_cast<std::uint64_t>(size) * count;
  }
  if (s.batches > 0)
    s.mean_batch_size =
        static_cast<double>(grouped) / static_cast<double>(s.batches);
  return s;
}

void ServerStats::mark_start() {
  MutexLock lock(mu_);
  start_ = ServeClock::now();
}

ServerStats::ClassCounters& ServerStats::class_counters(
    const std::string& cls) {
  return classes_[cls];
}

void ServerStats::record_submitted(std::size_t queue_depth_after,
                                   const std::string& cls) {
  MutexLock lock(mu_);
  ++submitted_;
  max_queue_depth_ = std::max(max_queue_depth_, queue_depth_after);
  if (!cls.empty()) ++class_counters(cls).submitted;
}

void ServerStats::record_rejected(ServeStatus status, const std::string& cls) {
  CB_CHECK_MSG(status == ServeStatus::kRejected ||
                   status == ServeStatus::kQuotaExceeded ||
                   status == ServeStatus::kShutdown,
               "not a front-door refusal: " << to_string(status));
  MutexLock lock(mu_);
  ++submitted_;
  ClassCounters* c = cls.empty() ? nullptr : &class_counters(cls);
  if (c != nullptr) ++c->submitted;
  if (status == ServeStatus::kRejected) {
    ++rejected_;
    if (c != nullptr) ++c->rejected;
  } else if (status == ServeStatus::kQuotaExceeded) {
    ++quota_rejected_;
    if (c != nullptr) ++c->quota_rejected;
  } else {
    ++shutdown_rejected_;
    if (c != nullptr) ++c->shutdown_rejected;
  }
}

void ServerStats::record_expired(std::size_t n, const std::string& cls) {
  MutexLock lock(mu_);
  expired_ += n;
  if (!cls.empty()) class_counters(cls).expired += n;
}

void ServerStats::record_failed(std::size_t n) {
  MutexLock lock(mu_);
  failed_ += n;
}

void ServerStats::record_batch(std::size_t group, double sim_seconds,
                               const std::vector<double>& latencies,
                               const std::vector<std::string>& classes,
                               const std::vector<StageLatencies>& stages) {
  MutexLock lock(mu_);
  ++batches_;
  sim_seconds_ += sim_seconds;
  ++histogram_[static_cast<int>(group)];
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    ++completed_;
    latency_.record(latencies[i]);
    const bool staged = i < stages.size();
    if (staged) {
      queue_wait_.record(stages[i].queue_wait);
      batch_delay_.record(stages[i].batch_delay);
      exec_.record(stages[i].exec);
    }
    if (i < classes.size() && !classes[i].empty()) {
      ClassCounters& c = class_counters(classes[i]);
      ++c.completed;
      c.latency.record(latencies[i]);
      if (staged) {
        c.queue_wait.record(stages[i].queue_wait);
        c.batch_delay.record(stages[i].batch_delay);
        c.exec.record(stages[i].exec);
      }
    }
  }
}

StatsSnapshot ServerStats::snapshot() const {
  MutexLock lock(mu_);
  StatsSnapshot s;
  s.submitted = submitted_;
  s.completed = completed_;
  s.rejected = rejected_;
  s.quota_rejected = quota_rejected_;
  s.shutdown_rejected = shutdown_rejected_;
  s.expired = expired_;
  s.failed = failed_;
  s.batches = batches_;
  s.sim_seconds = sim_seconds_;
  s.max_queue_depth = max_queue_depth_;
  if (start_ != ServeTimePoint{}) {
    s.wall_seconds =
        std::chrono::duration<double>(ServeClock::now() - start_).count();
  }
  if (s.wall_seconds > 0)
    s.throughput_rps = static_cast<double>(s.completed) / s.wall_seconds;
  if (s.sim_seconds > 0)
    s.modelled_rps = static_cast<double>(s.completed) / s.sim_seconds;

  s.latency = latency_;
  s.queue_wait = queue_wait_;
  s.batch_delay = batch_delay_;
  s.exec = exec_;
  fill_latency_fields(s);

  for (const auto& [name, counters] : classes_) {
    ClassSnapshot c;
    c.submitted = counters.submitted;
    c.completed = counters.completed;
    c.rejected = counters.rejected;
    c.quota_rejected = counters.quota_rejected;
    c.shutdown_rejected = counters.shutdown_rejected;
    c.expired = counters.expired;
    c.latency = counters.latency;
    c.queue_wait = counters.queue_wait;
    c.batch_delay = counters.batch_delay;
    c.exec = counters.exec;
    fill_class_latency_fields(c);
    s.classes.emplace(name, std::move(c));
  }

  std::uint64_t grouped = 0;
  for (const auto& [size, count] : histogram_) {
    s.batch_histogram.emplace_back(size, count);
    grouped += static_cast<std::uint64_t>(size) * count;
  }
  if (batches_ > 0)
    s.mean_batch_size =
        static_cast<double>(grouped) / static_cast<double>(batches_);
  return s;
}

StripedServerStats::StripedServerStats(std::size_t stripes) {
  const std::size_t n = std::max<std::size_t>(1, stripes);
  stripes_.reserve(n + 1);
  for (std::size_t i = 0; i < n + 1; ++i)
    stripes_.push_back(std::make_unique<ServerStats>());
}

void StripedServerStats::mark_start() {
  for (auto& s : stripes_) s->mark_start();
}

StatsSnapshot StripedServerStats::snapshot() const {
  // Every stripe, submit and exec alike: a snapshot that read only one
  // stripe would miss whatever the other shards' producers recorded.
  std::vector<StatsSnapshot> parts;
  parts.reserve(stripes_.size());
  for (const auto& s : stripes_) parts.push_back(s->snapshot());
  return merge_snapshots(parts);
}

}  // namespace convbound
