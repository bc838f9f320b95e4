// Figure 13: sensitivity to the accelerator architecture — achieved GFlops
// of (a) our dataflow with the auto-tuning engine, (b) a TVM-like tuned
// configuration and (c) the vendor-library-like baseline, across three
// machine models (1080Ti / Titan X / gfx906) on the paper's four cases.
//
// Paper shapes use C_in = 512; scaled here to C_in = 128, C_out = 64
// (EXPERIMENTS.md records the mapping).
#include "bench_util.hpp"

#include "convbound/tune/batch_measure.hpp"
#include "convbound/tune/tuners.hpp"

namespace convbound::bench {
namespace {

constexpr int kBudget = 40;

struct Case {
  std::string name;
  ConvShape shape;
  bool winograd;
};

struct Cell {
  double ours = 0, tvm = 0, vendor = 0;
};
std::map<std::string, Cell> g_cells;  // key: case|machine

std::vector<Case> cases() {
  return {
      {"direct 28x28 mu1", make_shape(1, 128, 28, 64, 3, 1, 1), false},
      {"direct 112x112 mu1", make_shape(1, 128, 112, 64, 3, 1, 1), false},
      {"direct 112x112 mu2", make_shape(1, 128, 112, 64, 3, 2, 1), false},
      {"winograd 112x112", make_shape(1, 128, 112, 64, 3, 1, 1), true},
  };
}

std::vector<MachineSpec> machines() {
  return {MachineSpec::gtx1080ti(), MachineSpec::titan_x(),
          MachineSpec::gfx906()};
}

double tuned_gflops(SimGpu& gpu, const Case& c, bool prune) {
  DomainOptions opts;
  opts.winograd = c.winograd;
  opts.prune_with_optimality = prune;
  const auto domain = SearchDomain::build(c.shape, gpu.spec(), opts);
  BatchMeasurer m(gpu.spec(), domain, 5);
  AteTuner::Params params;
  if (prune) {
    // Our engine starts from the template's analytic default schedule.
    params.seeds.push_back(c.winograd
                               ? default_winograd_config(c.shape, 2, gpu.spec())
                               : default_tiled_config(c.shape, gpu.spec()));
  }
  AteTuner tuner(5, params);
  const TuneResult r = tuner.run(m, kBudget);
  return m.gflops(r.best_seconds);
}

double vendor_gflops(SimGpu& gpu, const Case& c) {
  const ConvProblem p = make_problem(c.shape, 5);
  Tensor4<float> out(c.shape.batch, c.shape.cout, c.shape.hout(),
                     c.shape.wout());
  LaunchStats stats;
  if (c.winograd) {
    stats = winograd_phased_sim(gpu, p.input, p.weights, c.shape, 2, out);
  } else {
    stats = run_conv(gpu, ConvAlgorithm::kCudnnDirect, p.input, p.weights,
                     c.shape)
                .stats;
  }
  return static_cast<double>(c.shape.flops()) / stats.sim_time / 1e9;
}

void register_all() {
  for (const Case& c : cases()) {
    for (const MachineSpec& spec : machines()) {
      const std::string key = c.name + "|" + spec.name;
      benchmark::RegisterBenchmark(
          ("fig13/" + key).c_str(), [c, spec, key](benchmark::State& st) {
            for (auto _ : st) {
              SimGpu gpu(spec);
              Cell cell;
              cell.ours = tuned_gflops(gpu, c, /*prune=*/true);
              cell.tvm = tuned_gflops(gpu, c, /*prune=*/false);
              cell.vendor = vendor_gflops(gpu, c);
              g_cells[key] = cell;
            }
          })
          ->Iterations(1)
          ->Unit(benchmark::kSecond);
    }
  }
}

void print_summary() {
  std::printf("\n=== Figure 13: architecture sensitivity (GFlops) ===\n");
  for (const Case& c : cases()) {
    std::printf("\n--- %s ---\n", c.name.c_str());
    Table t({"machine", "ours (ATE)", "TVM-like", "vendor-like",
             "ours/vendor", "ours/TVM"});
    for (const MachineSpec& spec : machines()) {
      const Cell& cell = g_cells[c.name + "|" + spec.name];
      t.add_row({spec.name, Table::fmt(cell.ours, 0),
                 Table::fmt(cell.tvm, 0), Table::fmt(cell.vendor, 0),
                 Table::fmt(cell.ours / cell.vendor, 2),
                 Table::fmt(cell.ours / cell.tvm, 2)});
    }
    std::printf("%s", t.to_string().c_str());
  }
  std::printf("\npaper shape to check: ours >= TVM-like >= vendor-like on "
              "every architecture; the ordering is consistent across "
              "machines (portability of the dataflow).\n");
}

}  // namespace
}  // namespace convbound::bench

int main(int argc, char** argv) {
  convbound::bench::register_all();
  return convbound::bench::run_all(argc, argv,
                                   convbound::bench::print_summary);
}
