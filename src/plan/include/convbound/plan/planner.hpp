// Bound-guided convolution planning: one decision point for every caller
// (API, model inference, CLI, benches).
//
// The Planner enumerates the algorithms eligible for a shape through the
// centralized capability query (`algorithm_supports`), scores each candidate
// with the bounds layer (dataflow I/O predictions against the Thm 4.12/4.20
// lower bounds) and, when asked, SimGpu dry-run measurements, consults the
// TuneCache for tuned configurations (falling back to the analytic Section 5
// defaults), and emits an immutable ConvPlan for the executor. Plans are
// memoised per (machine, shape, options), so callers plan once and execute
// many times.
//
// Concurrency: plan()/enumerate() are safe to call from several threads on
// one Planner (the memo is mutex-guarded and the TuneCache is thread-safe);
// concurrent cold misses may plan the same shape twice, but the first
// memoised plan wins and every caller receives it. A shared SimGpu is safe
// too — launches keep all mutable state on the stack.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "convbound/machine/sim_gpu.hpp"
#include "convbound/plan/conv_plan.hpp"
#include "convbound/tune/cache.hpp"
#include "convbound/util/mutex.hpp"
#include "convbound/util/thread_annotations.hpp"

namespace convbound {

/// How candidates are scored and configured.
enum class PlanMode {
  /// Bounds-layer predictions only; nothing is executed. Right for "what
  /// would run" tables (CLI `plan`) and very cheap planning.
  kAnalytic,
  /// Dry-run every candidate once on the SimGpu and pick the lowest
  /// simulated time, with analytic default configurations.
  kMeasured,
  /// Like kMeasured, but tunable algorithms take their configuration from
  /// the TuneCache (autotuning on a miss and caching the result).
  kTuned,
};

/// Which algorithm family competes for the plan.
enum class CandidateSet {
  kOurs,      ///< the paper's dataflows: tiled direct + fused Winograd
  kBaseline,  ///< cuDNN-like: naive direct, im2col+GEMM, phased Winograd
};

struct PlannerOptions {
  PlanMode mode = PlanMode::kMeasured;
  CandidateSet candidates = CandidateSet::kOurs;
  /// Autotune measurement budget on a TuneCache miss (kTuned only).
  int tune_budget = 32;
  /// Seed for dry-run problem data and autotuning.
  std::uint64_t seed = 42;
  /// Pin the Winograd variant F(e, r); 0 = bound-guided choice.
  std::int64_t force_e = 0;
};

/// One scored planning candidate; exposed so the CLI can print the full
/// ranking, not just the winner.
struct PlanCandidate {
  ConvAlgorithm algorithm = ConvAlgorithm::kDirectTiled;
  ConvConfig config;
  std::int64_t e = 2;
  bool tuned = false;
  double predicted_io_elems = 0;
  double lower_bound_elems = 0;
  double predicted_seconds = 0;
  bool measured = false;
  /// Candidate failed its dry run (e.g. configuration exceeds shared
  /// memory); never selected.
  bool infeasible = false;
};

class Planner {
 public:
  /// `cache` (optional, unowned) is consulted and updated by kTuned plans.
  explicit Planner(TuneCache* cache = nullptr) : cache_(cache) {}

  /// Centralized capability query: the algorithms of `set` that can run
  /// `s`, per algorithm_supports. Never empty (direct always applies).
  static std::vector<ConvAlgorithm> eligible_algorithms(CandidateSet set,
                                                        const ConvShape& s);

  /// Bound-guided Winograd output-tile edge: the feasible e (transform tile
  /// e + r - 1 <= 8, capped at 4 for accuracy) minimising the roofline time
  /// of the predicted dataflow I/O + arithmetic. 0 when Winograd cannot run
  /// `s` at all.
  static std::int64_t choose_winograd_e(const ConvShape& s,
                                        const MachineSpec& spec);

  /// All scored candidates for `s`, best first. Infeasible candidates sort
  /// last and are marked rather than dropped.
  std::vector<PlanCandidate> enumerate(SimGpu& gpu, const ConvShape& s,
                                       const PlannerOptions& opts);

  /// Best candidate as an immutable plan; memoised per (machine, shape,
  /// options).
  ConvPlan plan(SimGpu& gpu, const ConvShape& s, const PlannerOptions& opts);

  /// Plans a specific algorithm instead of competing the whole set (the
  /// per-panel benches). kCudnnDirect resolves to the measured best of its
  /// two concrete implementations, so the returned plan is always directly
  /// executable.
  ConvPlan plan_algorithm(SimGpu& gpu, const ConvShape& s, ConvAlgorithm algo,
                          const PlannerOptions& opts);

  TuneCache* cache() const { return cache_; }
  std::size_t plans_memoised() const;

 private:
  PlanCandidate make_candidate(SimGpu& gpu, const ConvShape& s,
                               ConvAlgorithm algo, std::int64_t e,
                               const PlannerOptions& opts, bool dry_run);
  ConvPlan to_plan(const ConvShape& s, const PlanCandidate& c) const;

  TuneCache* cache_;
  mutable Mutex memo_mu_;
  std::map<std::string, ConvPlan> memo_ CB_GUARDED_BY(memo_mu_);
};

}  // namespace convbound
