// Serving observability: counters, latency telemetry, batch-size
// histogram. ServerStats guards one accumulator with one mutex; the sharded
// front door gives each ingest shard its own ServerStats *stripe*
// (StripedServerStats below) so submit-path recording never contends on a
// global stats lock — stripes are folded bucket-wise at snapshot time via
// merge_snapshots, which the exact mergeable LatencyHistogram makes
// lossless.
//
// Latencies live in a log-bucketed LatencyHistogram (fixed geometric
// ladder, 5% relative resolution from 1µs to 100s — see
// convbound/util/latency_histogram.hpp): O(1) record, bounded memory for a
// long-running server, and — the property the cluster layer needs — exact
// merge by bucket-wise addition, so fleet percentiles computed after the
// merge are true percentiles of the combined request population (within one
// bucket), not a weighted average of per-device percentiles. Counters,
// mean, and max stay exact throughout.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "convbound/serve/request.hpp"
#include "convbound/util/latency_histogram.hpp"
#include "convbound/util/mutex.hpp"
#include "convbound/util/thread_annotations.hpp"

namespace convbound {

/// Per-tenant-class slice of the counters. Populated only for requests
/// that carry a resolved class name; a single-tenant server's snapshot has
/// an empty `classes` map, exactly as before tenancy existed.
struct ClassSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;           ///< backpressure (kRejected: queue full)
  std::uint64_t quota_rejected = 0;     ///< weighted-fair admission (kQuotaExceeded)
  std::uint64_t shutdown_rejected = 0;  ///< submit raced server stop (kShutdown)
  std::uint64_t expired = 0;            ///< effective deadline passed (kDeadlineExceeded)
  LatencyHistogram latency;
  double latency_p50 = 0;
  double latency_p99 = 0;
  double latency_mean = 0;
  double latency_max = 0;
  /// Per-stage decomposition of the completed requests' latency (same
  /// stage boundaries as StatsSnapshot's; see there).
  LatencyHistogram queue_wait;
  LatencyHistogram batch_delay;
  LatencyHistogram exec;
  double queue_wait_p99 = 0;
  double batch_delay_p99 = 0;
  double exec_p99 = 0;
};

/// Point-in-time copy of the server's counters with derived quantities.
struct StatsSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;           ///< backpressure (queue full)
  std::uint64_t quota_rejected = 0;     ///< over-share class under overload
  std::uint64_t shutdown_rejected = 0;  ///< submit raced server stop
  std::uint64_t expired = 0;            ///< deadline passed while queued
  std::uint64_t failed = 0;             ///< execution errors
  std::uint64_t batches = 0;

  double wall_seconds = 0;         ///< since mark_start()
  double throughput_rps = 0;       ///< completed / wall_seconds
  /// Total modelled accelerator seconds across batches, and the request
  /// rate one modelled accelerator sustains — the simulator-side figure of
  /// merit (wall numbers measure this host, modelled numbers the machine
  /// model the paper reasons about).
  double sim_seconds = 0;
  double modelled_rps = 0;

  /// Submit-to-completion wall latencies of completed requests: the full
  /// mergeable histogram plus the derived quantities every consumer reads.
  /// The percentiles are histogram-derived (≤5% bucket error); max and
  /// mean are exact.
  LatencyHistogram latency;
  double latency_p50 = 0;
  double latency_p95 = 0;
  double latency_p99 = 0;
  double latency_max = 0;
  double latency_mean = 0;

  /// Stage decomposition of the same completed requests, recorded from the
  /// same timestamps the end-to-end latency uses, so the stages satisfy an
  /// exact accounting identity per request:
  ///   queue_wait (enqueue -> collect) + batch_delay (collect -> exec
  ///   start) + exec (exec start -> completion) == end-to-end latency
  /// and therefore sum(queue_wait) + sum(batch_delay) + sum(exec) ==
  /// sum(latency) over any snapshot (up to float rounding; pinned by test).
  LatencyHistogram queue_wait;
  LatencyHistogram batch_delay;
  LatencyHistogram exec;
  double queue_wait_p50 = 0, queue_wait_p99 = 0, queue_wait_mean = 0;
  double batch_delay_p50 = 0, batch_delay_p99 = 0, batch_delay_mean = 0;
  double exec_p50 = 0, exec_p99 = 0, exec_mean = 0;

  /// Live micro-batch size -> batch count.
  std::vector<std::pair<int, std::uint64_t>> batch_histogram;
  double mean_batch_size = 0;

  /// Per-class slices keyed by resolved class name. Empty when the server
  /// has no tenant classes configured.
  std::map<std::string, ClassSnapshot> classes;

  /// Front-door depth at snapshot time. A fleet merge SUMS the parts'
  /// depths (total requests queued across devices); only the high-water
  /// mark below takes the max.
  std::size_t queue_depth = 0;
  std::size_t max_queue_depth = 0;  ///< high-water mark

  /// Per-ingest-shard depths (at snapshot time) and high-water marks,
  /// filled by the cluster front door from the sharded queue; empty for
  /// consumers that never set them. Merged element-wise (sum).
  std::vector<std::size_t> shard_depths;
  std::vector<std::size_t> shard_max_depths;
  /// max/mean over shard_max_depths: 1.0 = perfectly even ingest, higher =
  /// skew from the hash(model)+class shard rule. 0 when unset.
  double shard_imbalance = 0;

  // Session-pool state (filled by each device's engine).
  std::size_t plans_memoised = 0;
  std::uint64_t plan_misses_after_warm = 0;
  std::size_t workspace_buffers = 0;
  std::uint64_t workspace_bytes = 0;
};

/// Fleet-wide view of per-device snapshots, treating the parts as devices
/// running *in parallel* (the cluster layer's semantics):
///   - counters, sim_seconds, histograms, and memo/workspace sizes sum;
///   - wall_seconds and queue depths take the max;
///   - modelled_rps = total completed / max part sim_seconds — the
///     makespan figure: at saturation the busiest device's modelled time is
///     when the fleet finishes;
///   - latency percentiles are recomputed from the bucket-wise merge of the
///     parts' LatencyHistograms, so the fleet p50/p95/p99 are exact
///     percentiles of the combined population (within one 5% bucket);
///     max/mean stay exact.
StatsSnapshot merge_snapshots(const std::vector<StatsSnapshot>& parts);

/// max/mean of the per-shard values (the shard-imbalance ratio); 0 when
/// the vector is empty or all-zero.
double shard_imbalance_ratio(const std::vector<std::size_t>& shard_values);

class ServerStats {
 public:
  /// Per-request stage durations (seconds), computed by the executor from
  /// the request's enqueue/collect/exec-start/done timestamps.
  struct StageLatencies {
    double queue_wait = 0;
    double batch_delay = 0;
    double exec = 0;
  };

  void mark_start();

  /// The `cls` parameters name the request's resolved tenant class; ""
  /// (the default) skips per-class attribution, so single-tenant callers
  /// pay nothing and see no class map.
  void record_submitted(std::size_t queue_depth_after,
                        const std::string& cls = {});
  void record_rejected(const std::string& cls = {});
  void record_quota_rejected(const std::string& cls = {});
  /// A submit that lost the race with server stop (ServeStatus::kShutdown).
  void record_shutdown_rejected(const std::string& cls = {});
  void record_expired(std::size_t n, const std::string& cls = {});
  void record_failed(std::size_t n);
  /// One executed micro-batch: group size, modelled batch time, and the
  /// per-request wall latencies. `classes`, when non-empty, runs parallel
  /// to `latencies` and attributes each completion to its tenant class;
  /// `stages`, when non-empty, runs parallel to `latencies` and feeds the
  /// per-stage decomposition histograms.
  void record_batch(std::size_t group, double sim_seconds,
                    const std::vector<double>& latencies,
                    const std::vector<std::string>& classes = {},
                    const std::vector<StageLatencies>& stages = {});

  /// Derived values only; the session-pool and queue-depth fields are the
  /// server's to fill.
  StatsSnapshot snapshot() const;

 private:
  /// Per-class accumulator (histogram + counters); caller holds mu_.
  struct ClassCounters {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t quota_rejected = 0;
    std::uint64_t shutdown_rejected = 0;
    std::uint64_t expired = 0;
    LatencyHistogram latency;
    LatencyHistogram queue_wait;
    LatencyHistogram batch_delay;
    LatencyHistogram exec;
  };
  ClassCounters& class_counters(const std::string& cls) CB_REQUIRES(mu_);

  mutable Mutex mu_;
  ServeTimePoint start_ CB_GUARDED_BY(mu_){};
  std::uint64_t submitted_ CB_GUARDED_BY(mu_) = 0;
  std::uint64_t completed_ CB_GUARDED_BY(mu_) = 0;
  std::uint64_t rejected_ CB_GUARDED_BY(mu_) = 0;
  std::uint64_t quota_rejected_ CB_GUARDED_BY(mu_) = 0;
  std::uint64_t shutdown_rejected_ CB_GUARDED_BY(mu_) = 0;
  std::uint64_t expired_ CB_GUARDED_BY(mu_) = 0;
  std::uint64_t failed_ CB_GUARDED_BY(mu_) = 0;
  std::uint64_t batches_ CB_GUARDED_BY(mu_) = 0;
  double sim_seconds_ CB_GUARDED_BY(mu_) = 0;
  /// Every completion, O(1) per record.
  LatencyHistogram latency_ CB_GUARDED_BY(mu_);
  LatencyHistogram queue_wait_ CB_GUARDED_BY(mu_);
  LatencyHistogram batch_delay_ CB_GUARDED_BY(mu_);
  LatencyHistogram exec_ CB_GUARDED_BY(mu_);
  std::map<int, std::uint64_t> histogram_ CB_GUARDED_BY(mu_);
  std::map<std::string, ClassCounters> classes_ CB_GUARDED_BY(mu_);
  std::size_t max_queue_depth_ CB_GUARDED_BY(mu_) = 0;
};

/// Lock-striped server stats for the sharded front door: one ServerStats
/// stripe per ingest shard (submit-path recording goes to the stripe of
/// the shard the request hashed to, so producers on different shards never
/// share a stats mutex) plus one dedicated *exec* stripe the batch
/// executor records completions into (the executor is one thread; giving
/// it its own stripe keeps it off every producer's lock).
///
/// snapshot() folds ALL stripes through merge_snapshots — counters sum,
/// latency histograms add bucket-wise (exact), wall time takes the max,
/// modelled rps is recomputed from total completions over the makespan.
/// Reading any single stripe as if it were the whole server (the PR 6
/// front-door override bug this replaces) undercounts by whatever landed
/// on the other stripes; the skewed-stripe regression test pins this.
class StripedServerStats {
 public:
  /// `stripes` submit stripes (>= 1, clamped) + the exec stripe.
  explicit StripedServerStats(std::size_t stripes);
  StripedServerStats(const StripedServerStats&) = delete;
  StripedServerStats& operator=(const StripedServerStats&) = delete;

  void mark_start();

  /// Submit-path stripe `i` (callers pass the ingest shard index; values
  /// >= num_stripes() wrap).
  ServerStats& stripe(std::size_t i) { return *stripes_[i % num_stripes()]; }
  /// The executor's dedicated stripe (batches, failures, expiry).
  ServerStats& exec_stripe() { return *stripes_.back(); }
  /// Submit stripes only (excludes the exec stripe).
  std::size_t num_stripes() const { return stripes_.size() - 1; }

  /// Fold of every stripe (submit + exec); see class comment.
  StatsSnapshot snapshot() const;

 private:
  /// [0, n) submit stripes, [n] exec stripe. The vector itself is
  /// immutable after construction (no facade lock, by design — that is
  /// the whole point of striping); each stripe locks its own mu_.
  std::vector<std::unique_ptr<ServerStats>> stripes_;
};

}  // namespace convbound
