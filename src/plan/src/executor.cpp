#include "convbound/plan/executor.hpp"

#include "convbound/obs/trace.hpp"

namespace convbound {

LaunchStats run_plan(SimGpu& gpu, const ConvPlan& plan,
                     const Tensor4<float>& input,
                     const Tensor4<float>& weights, Tensor4<float>& out) {
  // Per-layer trace spans: two clock reads per layer, gated so the
  // tracing-off path pays one relaxed load and no clocks.
  const auto dispatch = [&] {
    return run_conv_into(gpu, plan.algorithm, input, weights, plan.shape,
                         plan.config, plan.e, out);
  };
  if (!obs::on()) return dispatch();
  const TraceClock::time_point t0 = TraceClock::now();
  LaunchStats stats = dispatch();
  const TraceClock::time_point t1 = TraceClock::now();
  // value carries the modelled layer time; the span's wall duration is the
  // host-side simulation cost of the same layer.
  obs::span(TraceStage::kLayerExec, t0, t1, 0, 0, -1, stats.sim_time);
  return stats;
}

ConvExecutor::Execution ConvExecutor::execute(SimGpu& gpu,
                                              const ConvPlan& plan,
                                              const Tensor4<float>& input,
                                              const Tensor4<float>& weights) {
  const ConvShape& s = plan.shape;
  Workspace::Lease lease =
      ws_.acquire(s.batch, s.cout, s.hout(), s.wout(), Layout::kNCHW);
  LaunchStats stats = run_plan(gpu, plan, input, weights, lease.tensor());
  return Execution{stats, std::move(lease)};
}

LaunchStats ConvExecutor::execute_into(SimGpu& gpu, const ConvPlan& plan,
                                       const Tensor4<float>& input,
                                       const Tensor4<float>& weights,
                                       Tensor4<float>& out) {
  return run_plan(gpu, plan, input, weights, out);
}

}  // namespace convbound
