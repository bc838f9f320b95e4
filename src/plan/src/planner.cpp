#include "convbound/plan/planner.hpp"

#include <algorithm>
#include <cmath>

#include "convbound/bounds/conv_bounds.hpp"
#include "convbound/conv/reference.hpp"
#include "convbound/plan/executor.hpp"
#include "convbound/tune/engine.hpp"

namespace convbound {

namespace {

bool is_winograd(ConvAlgorithm algo) {
  return algo == ConvAlgorithm::kWinogradFused ||
         algo == ConvAlgorithm::kWinogradPhased;
}

bool is_tunable(ConvAlgorithm algo) {
  return algo == ConvAlgorithm::kDirectTiled ||
         algo == ConvAlgorithm::kWinogradFused;
}

double winograd_tiles(const ConvShape& s, std::int64_t e) {
  return static_cast<double>(s.batch) *
         static_cast<double>((s.hout() + e - 1) / e) *
         static_cast<double>((s.wout() + e - 1) / e);
}

/// Arithmetic estimate for ranking (FMA = 2 FLOPs): element-wise products
/// plus the input/output transform sandwiches; kernel transforms are
/// amortised and ignored.
double winograd_flops_estimate(const ConvShape& s, std::int64_t e) {
  const double a = static_cast<double>(e + s.kh - 1);
  const double tiles = winograd_tiles(s, e);
  const double products = 2.0 * tiles * static_cast<double>(s.cin) *
                          static_cast<double>(s.cout) * a * a;
  const double in_transform =
      4.0 * tiles * static_cast<double>(s.cin) * a * a * a;
  const double out_transform = 4.0 * tiles * static_cast<double>(s.cout) *
                               static_cast<double>(e) * a * a;
  return products + in_transform + out_transform;
}

/// Bounds-layer I/O prediction (elements, reads + writes) for an algorithm
/// with its chosen tile. Baselines get honest structural estimates so the
/// CLI ranking stays meaningful; only the tunable dataflows have exact
/// Equation (20)/(22) models.
double predicted_io_elems(const ConvShape& s, ConvAlgorithm algo,
                          const ConvConfig& cfg, std::int64_t e) {
  const double out = static_cast<double>(s.output_elems());
  switch (algo) {
    case ConvAlgorithm::kDirectTiled:
      return direct_dataflow_reads(s, cfg.x, cfg.y, cfg.z) + out;
    case ConvAlgorithm::kWinogradFused:
      return winograd_dataflow_reads(s, e, cfg.x, cfg.y, cfg.z) + out;
    case ConvAlgorithm::kDirectNaive: {
      // The tiled dataflow at its fixed 8 x 8 x 1 configuration (no
      // output-channel reuse).
      const ConvConfig n = naive_direct_config(s);
      return direct_dataflow_reads(s, n.x, n.y, n.z) + out;
    }
    case ConvAlgorithm::kIm2col: {
      // Column matrix written then re-read by the GEMM.
      const double col = static_cast<double>(s.batch * s.hout() * s.wout()) *
                         static_cast<double>(s.cin * s.kh * s.kw);
      return static_cast<double>(s.input_elems()) + 2.0 * col +
             static_cast<double>(s.weight_elems()) + out;
    }
    case ConvAlgorithm::kWinogradPhased: {
      // U, V, M materialised in global memory (written + read once each).
      const double a2 = static_cast<double>((e + s.kh - 1) * (e + s.kh - 1));
      const double tiles = winograd_tiles(s, e);
      const double u = static_cast<double>(s.cout * s.cin) * a2;
      const double v = tiles * static_cast<double>(s.cin) * a2;
      const double m = tiles * static_cast<double>(s.cout) * a2;
      return static_cast<double>(s.input_elems()) +
             static_cast<double>(s.weight_elems()) + 2.0 * (u + v + m) + out;
    }
    case ConvAlgorithm::kCudnnDirect:
      break;
  }
  return 0;
}

double roofline_seconds(const MachineSpec& spec, double io_elems,
                        double flops) {
  const double io_s = io_elems * sizeof(float) / spec.global_bw;
  const double fl_s = flops / spec.peak_flops;
  return std::max(io_s, fl_s) + spec.launch_overhead;
}

std::string memo_key(const MachineSpec& spec, const ConvShape& s,
                     const PlannerOptions& o) {
  return spec.name + '|' + s.to_string() + '|' +
         std::to_string(static_cast<int>(o.mode)) + '|' +
         std::to_string(static_cast<int>(o.candidates)) + '|' +
         std::to_string(o.tune_budget) + '|' + std::to_string(o.seed) + '|' +
         std::to_string(o.force_e);
}

}  // namespace

std::vector<ConvAlgorithm> Planner::eligible_algorithms(CandidateSet set,
                                                        const ConvShape& s) {
  const std::vector<ConvAlgorithm> pool =
      set == CandidateSet::kOurs
          ? std::vector<ConvAlgorithm>{ConvAlgorithm::kDirectTiled,
                                       ConvAlgorithm::kWinogradFused}
          : std::vector<ConvAlgorithm>{ConvAlgorithm::kDirectNaive,
                                       ConvAlgorithm::kIm2col,
                                       ConvAlgorithm::kWinogradPhased};
  std::vector<ConvAlgorithm> out;
  for (ConvAlgorithm algo : pool)
    if (algorithm_supports(algo, s)) out.push_back(algo);
  return out;
}

std::int64_t Planner::choose_winograd_e(const ConvShape& s,
                                        const MachineSpec& spec) {
  if (!algorithm_supports(ConvAlgorithm::kWinogradFused, s)) return 0;
  const double S = static_cast<double>(spec.smem_floats());
  std::int64_t best_e = 0;
  double best_score = 0;
  // e capped at 4 (a <= r + 3): the accuracy envelope production Winograd
  // kernels use; larger tiles win on I/O but amplify transform error.
  for (std::int64_t e = 2; e <= 4; ++e) {
    if (e + s.kh - 1 > 8) continue;  // no F(e, r) transform
    const double io = winograd_dataflow_io(s, e, S, spec.num_sms);
    const double score =
        roofline_seconds(spec, io, winograd_flops_estimate(s, e));
    if (best_e == 0 || score < best_score) {
      best_e = e;
      best_score = score;
    }
  }
  return best_e;
}

PlanCandidate Planner::make_candidate(SimGpu& gpu, const ConvShape& s,
                                      ConvAlgorithm algo, std::int64_t e,
                                      const PlannerOptions& opts,
                                      bool dry_run) {
  const MachineSpec& spec = gpu.spec();
  PlanCandidate c;
  c.algorithm = algo;
  c.e = e;

  // Configuration: analytic Section 5 default, overridden by the tune cache
  // or a fresh autotuning run for the tunable dataflows in kTuned mode.
  const bool wino = algo == ConvAlgorithm::kWinogradFused;
  if (is_tunable(algo)) {
    c.config = wino ? default_winograd_config(s, e, spec)
                    : default_tiled_config(s, spec);
    if (opts.mode == PlanMode::kTuned) {
      const std::string key = TuneCache::make_key(spec, s, wino, e);
      if (cache_ != nullptr) {
        if (const auto hit = cache_->get(key)) {
          c.config = hit->config;
          c.tuned = true;
        }
      }
      if (!c.tuned) {
        AutotuneOptions aopts;
        aopts.budget = opts.tune_budget;
        aopts.seed = opts.seed;
        aopts.winograd = wino;
        aopts.e = e;
        const AutotuneOutcome outcome = autotune_conv(gpu, s, aopts);
        if (outcome.result.best_seconds < 1e30) {
          c.config = outcome.result.best;
          c.tuned = true;
          if (cache_ != nullptr)
            cache_->put(key, {c.config, outcome.best_gflops});
        }
      }
    }
  }

  c.predicted_io_elems = predicted_io_elems(s, algo, c.config, e);
  c.lower_bound_elems =
      family_lower_bound(s, is_winograd(algo) ? e : 0,
                         static_cast<double>(spec.smem_floats()));
  const double flops = is_winograd(algo)
                           ? winograd_flops_estimate(s, e)
                           : static_cast<double>(s.flops());
  c.predicted_seconds = roofline_seconds(spec, c.predicted_io_elems, flops);

  if (dry_run) {
    ConvPlan probe = to_plan(s, c);
    const ConvProblem p = make_problem(s, opts.seed);
    Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
    try {
      const LaunchStats stats = run_plan(gpu, probe, p.input, p.weights, out);
      c.predicted_seconds = stats.sim_time;
      c.measured = true;
    } catch (const Error&) {
      // Configuration does not physically fit (e.g. shared-memory
      // overflow); keep the candidate visible but never select it.
      c.infeasible = true;
    }
  }
  return c;
}

ConvPlan Planner::to_plan(const ConvShape& s, const PlanCandidate& c) const {
  ConvPlan p;
  p.shape = s;
  p.algorithm = c.algorithm;
  p.config = c.config;
  p.e = c.e;
  p.tuned = c.tuned;
  p.predicted_io_elems = c.predicted_io_elems;
  p.lower_bound_elems = c.lower_bound_elems;
  p.predicted_seconds = c.predicted_seconds;
  p.measured = c.measured;
  return p;
}

std::vector<PlanCandidate> Planner::enumerate(SimGpu& gpu, const ConvShape& s,
                                              const PlannerOptions& opts) {
  s.validate();
  const std::vector<ConvAlgorithm> algos =
      eligible_algorithms(opts.candidates, s);
  CB_CHECK_MSG(!algos.empty(),
               "no eligible algorithm for " << s.to_string());
  const bool dry_run = opts.mode != PlanMode::kAnalytic;

  std::vector<PlanCandidate> cands;
  for (ConvAlgorithm algo : algos) {
    std::int64_t e = 2;
    if (is_winograd(algo)) {
      e = opts.force_e > 0 ? opts.force_e
                           : choose_winograd_e(s, gpu.spec());
      if (e == 0) continue;
    }
    cands.push_back(make_candidate(gpu, s, algo, e, opts, dry_run));
  }
  std::stable_sort(cands.begin(), cands.end(),
                   [](const PlanCandidate& a, const PlanCandidate& b) {
                     if (a.infeasible != b.infeasible) return b.infeasible;
                     return a.predicted_seconds < b.predicted_seconds;
                   });
  return cands;
}

ConvPlan Planner::plan(SimGpu& gpu, const ConvShape& s,
                       const PlannerOptions& opts) {
  const std::string key = memo_key(gpu.spec(), s, opts);
  {
    MutexLock lock(memo_mu_);
    if (const auto it = memo_.find(key); it != memo_.end()) return it->second;
  }
  // Planning (dry runs, autotuning) happens outside the lock; when two
  // threads race on the same cold shape, the first emplace wins and both
  // return the memoised plan.
  const std::vector<PlanCandidate> cands = enumerate(gpu, s, opts);
  CB_CHECK_MSG(!cands.empty() && !cands.front().infeasible,
               "no feasible plan for " << s.to_string());
  const ConvPlan p = to_plan(s, cands.front());
  MutexLock lock(memo_mu_);
  return memo_.emplace(key, p).first->second;
}

std::size_t Planner::plans_memoised() const {
  MutexLock lock(memo_mu_);
  return memo_.size();
}

ConvPlan Planner::plan_algorithm(SimGpu& gpu, const ConvShape& s,
                                 ConvAlgorithm algo,
                                 const PlannerOptions& opts) {
  s.validate();
  if (algo == ConvAlgorithm::kCudnnDirect) {
    // Resolve the best-of alias to a concrete winner, as cuDNN's find
    // phase does (paper Section 7).
    PlanCandidate best;
    bool have = false;
    for (ConvAlgorithm cand :
         {ConvAlgorithm::kDirectNaive, ConvAlgorithm::kIm2col}) {
      if (!algorithm_supports(cand, s)) continue;
      PlanCandidate c = make_candidate(gpu, s, cand, 2, opts,
                                       opts.mode != PlanMode::kAnalytic);
      if (c.infeasible) continue;
      if (!have || c.predicted_seconds < best.predicted_seconds) {
        best = c;
        have = true;
      }
    }
    CB_CHECK_MSG(have, "no feasible direct baseline for " << s.to_string());
    return to_plan(s, best);
  }

  CB_CHECK_MSG(algorithm_supports(algo, s),
               to_string(algo) << " does not support " << s.to_string());
  std::int64_t e = 2;
  if (is_winograd(algo)) {
    e = opts.force_e > 0 ? opts.force_e : choose_winograd_e(s, gpu.spec());
    CB_CHECK_MSG(e > 0, "no Winograd transform for " << s.to_string());
  }
  return to_plan(s, make_candidate(gpu, s, algo, e, opts, false));
}

}  // namespace convbound
