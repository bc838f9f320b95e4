// Table 2: search-space size, iterations-to-convergence and solution quality
// for the auto-tuning engine (ATE, pruned domain) vs a TVM-like tuner (same
// GBT cost model, unpruned domain), on AlexNet conv layers, V100 model.
#include "bench_util.hpp"

#include "convbound/tune/batch_measure.hpp"
#include "convbound/tune/tuners.hpp"

namespace convbound::bench {
namespace {

constexpr int kBudget = 64;

struct Row {
  std::string name;
  ConvShape shape;
  bool winograd = false;

  std::uint64_t tvm_space = 0, ate_space = 0;
  int tvm_iters = 0, ate_iters = 0;
  double tvm_gflops = 0, ate_gflops = 0;
};

std::vector<Row> g_rows;

void run_row(Row row) {
  SimGpu gpu(MachineSpec::v100());
  DomainOptions ate_opts, tvm_opts;
  ate_opts.winograd = tvm_opts.winograd = row.winograd;
  ate_opts.e = tvm_opts.e = 2;
  ate_opts.prune_with_optimality = true;
  tvm_opts.prune_with_optimality = false;

  const auto ate_domain = SearchDomain::build(row.shape, gpu.spec(), ate_opts);
  const auto tvm_domain = SearchDomain::build(row.shape, gpu.spec(), tvm_opts);
  row.ate_space = ate_domain.size();
  row.tvm_space = tvm_domain.size();

  {
    BatchMeasurer m(gpu.spec(), ate_domain, 11);
    AteTuner::Params params;
    params.seeds.push_back(row.winograd
                               ? default_winograd_config(row.shape, 2, gpu.spec())
                               : default_tiled_config(row.shape, gpu.spec()));
    AteTuner tuner(11, params);
    const TuneResult r = tuner.run(m, kBudget);
    row.ate_iters = r.trials_to_converge();
    row.ate_gflops = m.gflops(r.best_seconds);
  }
  {
    BatchMeasurer m(gpu.spec(), tvm_domain, 11);
    AteTuner tuner(11);  // same engine, unpruned space = TVM-like
    const TuneResult r = tuner.run(m, kBudget);
    row.tvm_iters = r.trials_to_converge();
    row.tvm_gflops = m.gflops(r.best_seconds);
  }
  g_rows.push_back(std::move(row));
}

void register_all() {
  const std::vector<Row> rows = {
      {"conv1", make_shape(1, 3, 227, 96, 11, 4, 0), false, 0, 0, 0, 0, 0, 0},
      {"conv2", make_shape(1, 96, 27, 256, 5, 1, 2), false, 0, 0, 0, 0, 0, 0},
      {"conv3", make_shape(1, 256, 13, 384, 3, 1, 1), false, 0, 0, 0, 0, 0, 0},
      {"conv4", make_shape(1, 384, 13, 256, 3, 1, 1), false, 0, 0, 0, 0, 0, 0},
      {"conv3_wino", make_shape(1, 256, 13, 384, 3, 1, 1), true,
       0, 0, 0, 0, 0, 0},
      {"conv4_wino", make_shape(1, 384, 13, 256, 3, 1, 1), true,
       0, 0, 0, 0, 0, 0},
  };
  for (const Row& r : rows) {
    benchmark::RegisterBenchmark(("table2/" + r.name).c_str(),
                                 [r](benchmark::State& st) {
                                   for (auto _ : st) run_row(r);
                                 })
        ->Iterations(1)
        ->Unit(benchmark::kSecond);
  }
}

void print_summary() {
  std::printf("\n=== Table 2: TVM-like tuner vs auto-tuning engine (ATE), "
              "AlexNet conv layers, V100 model ===\n");
  Table t({"layer", "space TVM", "space ATE", "ATE/TVM", "iters TVM",
           "iters ATE", "TVM/ATE", "GFlops TVM", "GFlops ATE", "ATE/TVM"});
  for (const auto& r : g_rows) {
    t.add_row({r.name, Table::fmt_int(static_cast<long long>(r.tvm_space)),
               Table::fmt_int(static_cast<long long>(r.ate_space)),
               Table::fmt(100.0 * static_cast<double>(r.ate_space) /
                              static_cast<double>(r.tvm_space),
                          1) + "%",
               std::to_string(r.tvm_iters), std::to_string(r.ate_iters),
               Table::fmt(static_cast<double>(r.tvm_iters) /
                              static_cast<double>(r.ate_iters),
                          2),
               Table::fmt(r.tvm_gflops, 0), Table::fmt(r.ate_gflops, 0),
               Table::fmt(r.ate_gflops / r.tvm_gflops, 2)});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\npaper shape to check: ATE space is ~20-55%% of TVM's, ATE "
              "converges in fewer iterations, solution GFlops >= TVM's.\n");
}

}  // namespace
}  // namespace convbound::bench

int main(int argc, char** argv) {
  convbound::bench::register_all();
  return convbound::bench::run_all(argc, argv,
                                   convbound::bench::print_summary);
}
