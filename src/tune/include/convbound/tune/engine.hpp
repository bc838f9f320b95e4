// One-call auto-tuning entry point (the paper's Section 6.3 loop), now a
// thin driver over the stepwise Tuner API: pick a strategy from the
// registry, step it against the batched measurer, and optionally persist a
// resumable checkpoint after every measured batch.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "convbound/tune/registry.hpp"

namespace convbound {

struct AutotuneOptions {
  int budget = 96;            ///< measurement trials
  std::uint64_t seed = 1;
  bool winograd = false;
  std::int64_t e = 2;
  bool prune_with_optimality = true;
  /// Strategy id for make_tuner: "ate" (default) | "bnb" | "sa" | "ga" |
  /// "random".
  std::string tuner = "ate";
  /// When non-empty, the full search state is written here (atomic
  /// tmp+rename) after every measured batch, so a killed run loses at most
  /// the in-flight batch.
  std::string checkpoint;
  /// Load `checkpoint` and continue its trace up to `budget` total trials
  /// instead of starting fresh. The file must exist and must match the
  /// domain (key + exact configuration count).
  bool resume = false;
  AteTuner::Params ate;
};

struct AutotuneOutcome {
  TuneResult result;
  SearchDomain domain;
  double best_gflops = 0;
  /// Strategy-specific counters (bnb pruning stats; empty otherwise).
  std::vector<std::pair<std::string, double>> tuner_stats;
  /// Trials restored from the checkpoint (0 for a fresh run).
  int resumed_from_trials = 0;
  /// The strategy proved no better configuration exists (bnb only).
  bool proven_optimal = false;
};

/// Builds the (pruned) domain for `shape` on `gpu`'s machine, runs the
/// selected tuner (seeded with the analytic dataflow default) and returns
/// the best configuration + trace.
AutotuneOutcome autotune_conv(SimGpu& gpu, const ConvShape& shape,
                              const AutotuneOptions& opts = {});

}  // namespace convbound
