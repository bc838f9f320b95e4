// Ablation of the design choices DESIGN.md calls out:
//   1. the optimality condition x*y = R*z (on-condition vs off-condition
//      tiles at the same shared-memory budget);
//   2. output-stationary accumulation (ours) vs no output-channel reuse
//      (z = 1, the naive kernel);
//   3. the S_b <= S_sm/2 occupancy rule (one resident block vs two);
//   4. search-space pruning ratio (what Table 2's compression measures).
#include "bench_util.hpp"

#include "convbound/tune/domain.hpp"

namespace convbound::bench {
namespace {

ConvShape layer() { return make_shape(1, 128, 56, 128, 3, 1, 1); }

struct TileResult {
  std::string label;
  double residual;
  double io_mb;
  double sim_ms;
};
std::vector<TileResult> g_tiles;
std::vector<std::string> g_notes;

void register_tile_ablation() {
  struct Cfg {
    const char* label;
    std::int64_t x, y, z;
  };
  // All tiles use ~576 output elements (same S_b footprint class); only the
  // first two satisfy x*y = 9*z.
  for (const Cfg& c : {Cfg{"on-condition (8,9,8)", 8, 9, 8},
                       Cfg{"on-condition (12,12,16)", 12, 12, 16},
                       Cfg{"flat (24,24,1)", 24, 24, 1},
                       Cfg{"deep (2,2,128)", 2, 2, 128},
                       Cfg{"square-ish (8,8,9)", 8, 8, 9}}) {
    benchmark::RegisterBenchmark(
        (std::string("ablation_optimality/tile/") + c.label).c_str(),
        [c](benchmark::State& st) {
          for (auto _ : st) {
            const ConvShape s = layer();
            SimGpu gpu(MachineSpec::gtx1080ti());
            const ConvProblem p = make_problem(s, 3);
            Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
            ConvConfig cfg;
            cfg.x = c.x;
            cfg.y = c.y;
            cfg.z = c.z;
            cfg.nxt = cfg.nyt = 4;
            cfg.nzt = 2;
            const auto stats =
                direct_tiled_sim(gpu, p.input, p.weights, s, cfg, out);
            g_tiles.push_back(
                {c.label, optimality_residual(s, c.x, c.y, c.z),
                 static_cast<double>(stats.bytes_total()) / 1e6,
                 stats.sim_time * 1e3});
          }
        })
        ->Iterations(1);
  }
}

void register_stationarity_and_occupancy() {
  benchmark::RegisterBenchmark(
      "ablation_optimality/output_stationarity", [](benchmark::State& st) {
        for (auto _ : st) {
          const ConvShape s = layer();
          SimGpu gpu(MachineSpec::gtx1080ti());
          const ConvProblem p = make_problem(s, 3);
          Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
          const auto ours = direct_tiled_sim(
              gpu, p.input, p.weights, s,
              default_tiled_config(s, gpu.spec()), out);
          const auto naive = run_conv(gpu, ConvAlgorithm::kDirectNaive,
                                      p.input, p.weights, s)
                                 .stats;
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "output-stationary tiles move %.2fx less data than "
                        "the z=1 kernel (%.1f MB vs %.1f MB)",
                        static_cast<double>(naive.bytes_total()) /
                            static_cast<double>(ours.bytes_total()),
                        static_cast<double>(ours.bytes_total()) / 1e6,
                        static_cast<double>(naive.bytes_total()) / 1e6);
          g_notes.emplace_back(buf);
        }
      })->Iterations(1);

  benchmark::RegisterBenchmark(
      "ablation_optimality/occupancy_rule", [](benchmark::State& st) {
        for (auto _ : st) {
          const ConvShape s = layer();
          SimGpu gpu(MachineSpec::gtx1080ti());
          const ConvProblem p = make_problem(s, 3);
          Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
          ConvConfig cfg = default_tiled_config(s, gpu.spec());
          // Two resident blocks (S_b = S_sm/2) vs one (S_b = S_sm).
          cfg.smem_budget = gpu.spec().shared_mem_per_sm / 2;
          const auto two = direct_tiled_sim(gpu, p.input, p.weights, s, cfg,
                                            out);
          cfg.smem_budget = gpu.spec().shared_mem_per_sm;
          const auto one = direct_tiled_sim(gpu, p.input, p.weights, s, cfg,
                                            out);
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "S_b = S_sm/2 (>=2 resident blocks) is %.2fx faster "
                        "than S_b = S_sm at equal tiling",
                        one.sim_time / two.sim_time);
          g_notes.emplace_back(buf);
        }
      })->Iterations(1);

  benchmark::RegisterBenchmark(
      "ablation_optimality/pruning_ratio", [](benchmark::State& st) {
        for (auto _ : st) {
          const ConvShape s = layer();
          const MachineSpec spec = MachineSpec::gtx1080ti();
          const auto pruned = SearchDomain::build(
              s, spec, {.prune_with_optimality = true});
          const auto full = SearchDomain::build(
              s, spec, {.prune_with_optimality = false});
          char buf[160];
          std::snprintf(
              buf, sizeof(buf),
              "optimality pruning keeps %llu of %llu configurations (%.1f%%)",
              static_cast<unsigned long long>(pruned.size()),
              static_cast<unsigned long long>(full.size()),
              100.0 * static_cast<double>(pruned.size()) /
                  static_cast<double>(full.size()));
          g_notes.emplace_back(buf);
        }
      })->Iterations(1);
}

void print_summary() {
  std::printf("\n=== Ablation 1: the optimality condition x*y = R*z "
              "(same budget, different tile aspect) ===\n");
  Table t({"tile", "|log(xy/Rz)|", "I/O (MB)", "sim time (ms)"});
  for (const auto& r : g_tiles) {
    t.add_row({r.label, Table::fmt(r.residual, 2), Table::fmt(r.io_mb, 1),
               Table::fmt(r.sim_ms, 3)});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\nexpected: I/O grows with the residual |log(x*y / R*z)|.\n");
  std::printf("\n=== Ablations 2-4 ===\n");
  for (const auto& n : g_notes) std::printf("  - %s\n", n.c_str());
}

}  // namespace
}  // namespace convbound::bench

int main(int argc, char** argv) {
  convbound::bench::register_tile_ablation();
  convbound::bench::register_stationarity_and_occupancy();
  return convbound::bench::run_all(argc, argv,
                                   convbound::bench::print_summary);
}
