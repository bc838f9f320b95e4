#include "convbound/machine/sim_gpu.hpp"

#include <future>

namespace convbound {

LaunchStats SimGpu::launch(const LaunchConfig& cfg, const Kernel& kernel) {
  CB_CHECK(cfg.num_blocks > 0);
  CB_CHECK_MSG(cfg.smem_bytes_per_block <= spec_.shared_mem_per_sm,
               "requested S_b=" << cfg.smem_bytes_per_block
                                << " B > S_sm=" << spec_.shared_mem_per_sm);

  struct StripeCounters {
    std::uint64_t loaded = 0, stored = 0, flops = 0;
  };

  if (mode_ == ExecMode::kSerial || pool_->on_worker_thread()) {
    // Drain every block on the calling thread. Counter totals (and therefore
    // the modelled time) are bit-identical to the striped path because they
    // are exact integer sums, independent of which thread ran which block.
    // A pool worker never stripes onto its own pool: it would wait on
    // stripes that no free worker may be left to run (thread_pool.hpp).
    SharedMemory smem(static_cast<std::size_t>(
        cfg.smem_bytes_per_block > 0 ? cfg.smem_bytes_per_block
                                     : spec_.shared_mem_per_sm));
    LaunchStats stats;
    for (std::int64_t b = 0; b < cfg.num_blocks; ++b) {
      smem.reset();
      BlockContext ctx(b, smem);
      kernel(ctx);
      stats.bytes_loaded += ctx.bytes_loaded();
      stats.bytes_stored += ctx.bytes_stored();
      stats.flops += ctx.flops();
    }
    stats.num_blocks = static_cast<std::uint64_t>(cfg.num_blocks);
    stats.num_launches = 1;
    stats.sim_time = model_time(spec_, cfg, stats.bytes_total(), stats.flops);
    return stats;
  }

  const std::size_t nw = pool_->num_threads();
  std::vector<StripeCounters> counters(nw);
  std::vector<std::future<void>> futs;
  futs.reserve(nw);

  for (std::size_t w = 0; w < nw; ++w) {
    futs.push_back(pool_->submit([this, w, nw, &cfg, &kernel, &counters] {
      SharedMemory smem(static_cast<std::size_t>(
          cfg.smem_bytes_per_block > 0 ? cfg.smem_bytes_per_block
                                       : spec_.shared_mem_per_sm));
      StripeCounters& c = counters[w];
      for (std::int64_t b = static_cast<std::int64_t>(w); b < cfg.num_blocks;
           b += static_cast<std::int64_t>(nw)) {
        smem.reset();
        BlockContext ctx(b, smem);
        kernel(ctx);
        c.loaded += ctx.bytes_loaded();
        c.stored += ctx.bytes_stored();
        c.flops += ctx.flops();
      }
    }));
  }
  // Wait for every stripe before rethrowing: stripes reference local state,
  // so an early rethrow while siblings still run would be a use-after-free.
  std::exception_ptr first_error;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  LaunchStats stats;
  for (const auto& c : counters) {
    stats.bytes_loaded += c.loaded;
    stats.bytes_stored += c.stored;
    stats.flops += c.flops;
  }
  stats.num_blocks = static_cast<std::uint64_t>(cfg.num_blocks);
  stats.num_launches = 1;
  stats.sim_time = model_time(spec_, cfg, stats.bytes_total(), stats.flops);
  return stats;
}

}  // namespace convbound
