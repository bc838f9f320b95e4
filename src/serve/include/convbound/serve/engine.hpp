// The execution half of a serving node: one per ClusterDevice in the
// cluster layer (a single-device server is a fleet of one).
//
// A ServeEngine owns everything one *device* needs to execute micro-batch
// groups: the bound-guided bucket choice per model (choose_batch_bucket
// against this device's MachineSpec), the power-of-two session-ladder, one
// thread-safe Planner per model, a TuneCache, and the SessionPool of warm
// replicas. warm() is the only place planning, tuning, and workspace
// allocation happen; after it, execute_batch() plans nothing and allocates
// nothing (the per-device zero-plan-miss / zero-alloc invariant, asserted
// by tests/serve_test.cpp and tests/cluster_test.cpp).
//
// The engine records execution-side events (batches, expirations, failures)
// into an injected ServerStats sink; queue-side events (submissions,
// rejections) belong to whoever owns the queue in front of the engine.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "convbound/machine/machine_spec.hpp"
#include "convbound/plan/planner.hpp"
#include "convbound/serve/batch_policy.hpp"
#include "convbound/serve/model.hpp"
#include "convbound/serve/queue.hpp"
#include "convbound/serve/session_pool.hpp"
#include "convbound/serve/stats.hpp"
#include "convbound/util/mutex.hpp"
#include "convbound/util/thread_annotations.hpp"

namespace convbound {

struct EngineOptions {
  MachineSpec machine = MachineSpec::v100();
  /// Sessions per (model, bucket): how many batches of one model may be in
  /// flight concurrently on this device.
  int replicas = 1;
  /// 0 = bound-guided bucket per model (choose_batch_bucket); otherwise a
  /// fixed bucket for every model (1 = the unbatched baseline).
  std::int64_t force_bucket = 0;
  BatchPolicyOptions policy;
  /// Planning mode for the warm sessions (kTuned autotunes through the
  /// engine's thread-safe TuneCache).
  PlanMode plan_mode = PlanMode::kMeasured;
  int tune_budget = 16;
  std::uint64_t seed = 42;
  /// Fleet ordinal stamped on this engine's trace events (the cluster sets
  /// each device's index).
  int device_ordinal = 0;
};

class ServeEngine {
 public:
  /// `models` and `stats` are unowned and must outlive the engine.
  ServeEngine(const std::map<std::string, ServedModel>& models,
              EngineOptions opts, ServerStats* stats);

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Chooses buckets and builds + warms every session (bucket ladder x
  /// replicas per model). The only place planning and tuning happen; safe
  /// to call concurrently with stats polling, call once.
  void warm();

  /// Runs one same-model group: drops expired requests, executes the rest
  /// at the smallest covering warm bucket, and completes every promise
  /// (kOk / kDeadlineExceeded / kError). Never throws.
  void execute_batch(std::vector<PendingRequest> group,
                     const std::string& model_name);

  const ServedModel& model(const std::string& name) const;
  /// The scored bucket candidates behind `name`'s chosen bucket.
  const BucketChoice& bucket_choice(const std::string& name) const;
  /// The scheduler's max group size for `name` (the chosen bucket).
  std::int64_t bucket_of(const std::string& name) const;
  /// Warm session buckets for `name`: powers of two up to the chosen
  /// bucket. A partial group executes at the smallest covering bucket, so
  /// padding waste is at most 2x instead of chosen-bucket x.
  const std::vector<std::int64_t>& exec_buckets(const std::string& name) const;

  /// Predicted whole-batch time of `name`'s chosen bucket on this device:
  /// the sum of the warm sessions' per-layer plan predictions (SimGpu
  /// dry-run measurements under the default kMeasured/kTuned planning,
  /// bounds-layer roofline under kAnalytic). Every plan() call here hits
  /// the warm memo, so this never plans after warm() — the cluster Router
  /// reads it once at start to build its cost table.
  double predicted_batch_seconds(const std::string& name);

  /// Fills the engine-side snapshot fields: plans_memoised,
  /// plan_misses_after_warm (0 until warm() completes), and the workspace
  /// counters.
  void fill_stats(StatsSnapshot& s) const;

  const EngineOptions& options() const { return opts_; }
  const MachineSpec& machine() const { return opts_.machine; }
  TuneCache& tune_cache() { return cache_; }

 private:
  /// Total memoised plans across the per-model planners.
  std::size_t plans_memoised() const;

  const std::map<std::string, ServedModel>* models_;
  EngineOptions opts_;
  ServerStats* stats_;
  /// The exact options warm() planned with; predicted_batch_seconds()
  /// replays them so its plan() calls are memo hits. Written only by
  /// warm() before any thread serves — unguarded by design, like
  /// buckets_/exec_buckets_ below (warm() must complete before
  /// execute_batch()/bucket_of() may be called; the lifecycle guard in
  /// ClusterDevice::start() enforces that).
  PlannerOptions plan_opts_;
  std::map<std::string, BucketChoice> buckets_;
  std::map<std::string, std::vector<std::int64_t>> exec_buckets_;
  TuneCache cache_;
  /// One shared thread-safe Planner per model (its memo keys include the
  /// batch size, so the whole bucket ladder plans each geometry once).
  /// Declared before sessions_: sessions hold pointers into this map.
  /// planners_mu_ guards the map itself (and warm_plans_/warmed_) so a
  /// stats() poll racing warm()'s emplaces is safe; the Planners inside
  /// are individually thread-safe — which is why warm() and
  /// predicted_batch_seconds() may legitimately take a Planner* out of
  /// the map under the lock and keep using it after release (map nodes
  /// are pointer-stable; only the map structure needs the lock).
  mutable Mutex planners_mu_;
  std::map<std::string, Planner> planners_ CB_GUARDED_BY(planners_mu_);
  SessionPool sessions_;
  std::size_t warm_plans_ CB_GUARDED_BY(planners_mu_) = 0;
  bool warmed_ CB_GUARDED_BY(planners_mu_) = false;
};

}  // namespace convbound
