// Batch-oriented, thread-pool-parallel measurement engine: the one
// Measurer every tuner runs against.
//
// Tuners hand over a whole proposal batch, and candidates are evaluated
// concurrently by per-worker replicas — each one a SimGpu on the
// measurer's pool plus a private scratch output — over shared immutable
// problem tensors. A replica measuring on a pool worker launches serially
// on that worker (the nested-pool rule, thread_pool.hpp), so cores run one
// candidate each instead of striping one candidate's blocks and are never
// oversubscribed. A batch that lands on a single replica runs on the
// caller's thread instead, with its blocks striped across the pool.
// Results align with the proposal order by index, which keeps search traces
// bit-identical across worker counts.
#pragma once

#include <atomic>
#include <memory>

#include "convbound/tune/measure.hpp"
#include "convbound/util/thread_pool.hpp"

namespace convbound {

class BatchMeasurer : public Measurer {
 public:
  /// `workers` = number of measurement replicas; 0 means one per pool
  /// thread. `pool` defaults to the process-global pool.
  BatchMeasurer(const MachineSpec& spec, const SearchDomain& domain,
                std::uint64_t seed = 42, int workers = 0,
                ThreadPool* pool = nullptr);

  std::vector<Measurement> measure_batch(
      const std::vector<ConvConfig>& cfgs) override;

  const SearchDomain& domain() const override { return domain_; }
  std::uint64_t trials() const override {
    return trials_.load(std::memory_order_relaxed);
  }
  int workers() const { return static_cast<int>(workers_.size()); }

 private:
  // Mutable per-worker scratch; everything a candidate evaluation writes.
  struct Worker {
    SimGpu gpu;
    Tensor4<float> out;
    Worker(const MachineSpec& spec, const ConvShape& s, ThreadPool* pool)
        : gpu(spec, pool), out(s.batch, s.cout, s.hout(), s.wout()) {}
  };

  SearchDomain domain_;
  std::shared_ptr<const MeasureInputs> inputs_;
  std::vector<std::unique_ptr<Worker>> workers_;
  ThreadPool* pool_;
  std::atomic<std::uint64_t> trials_{0};
};

}  // namespace convbound
