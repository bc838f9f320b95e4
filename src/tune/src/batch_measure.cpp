#include "convbound/tune/batch_measure.hpp"

#include "convbound/util/math.hpp"

namespace convbound {

BatchMeasurer::BatchMeasurer(const MachineSpec& spec,
                             const SearchDomain& domain, std::uint64_t seed,
                             int workers, ThreadPool* pool)
    : domain_(domain),
      inputs_(MeasureInputs::create(domain, seed)),
      pool_(pool != nullptr ? pool : &ThreadPool::global()) {
  const std::size_t n = workers > 0 ? static_cast<std::size_t>(workers)
                                    : pool_->num_threads();
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.push_back(std::make_unique<Worker>(spec, domain_.shape(), pool_));
}

std::vector<Measurement> BatchMeasurer::measure_batch(
    const std::vector<ConvConfig>& cfgs) {
  std::vector<Measurement> results(cfgs.size());
  if (cfgs.empty()) return results;

  // Contiguous slice per worker: each replica is touched by exactly one
  // parallel_for index, and every result lands at its candidate's index, so
  // the outcome is independent of task scheduling.
  const std::size_t active = std::min(workers_.size(), cfgs.size());
  const std::size_t chunk =
      static_cast<std::size_t>(ceil_div(static_cast<std::int64_t>(cfgs.size()),
                                        static_cast<std::int64_t>(active)));
  pool_->parallel_for(0, active, [&](std::size_t w) {
    Worker& wk = *workers_[w];
    const std::size_t lo = w * chunk;
    const std::size_t hi = std::min(cfgs.size(), lo + chunk);
    for (std::size_t i = lo; i < hi; ++i)
      results[i] = measure_config(wk.gpu, domain_, *inputs_, wk.out, cfgs[i]);
  });
  trials_.fetch_add(cfgs.size(), std::memory_order_relaxed);
  return results;
}

}  // namespace convbound
