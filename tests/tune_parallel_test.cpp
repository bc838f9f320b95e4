// The batched measurement engine's contract: candidate-level parallelism
// must never change what the tuner searches. Same seed => bit-identical
// TuneResult.history whether measurements run one by one through
// measure_config or through BatchMeasurer with any worker count.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "convbound/tune/batch_measure.hpp"
#include "convbound/tune/engine.hpp"
#include "convbound/tune/tuners.hpp"

namespace convbound {
namespace {

ConvShape small_shape() {
  ConvShape s;
  s.cin = 16;
  s.hin = s.win = 16;
  s.cout = 16;
  s.kh = s.kw = 3;
  s.stride = 1;
  s.pad = 1;
  return s;
}

// Bit-exact trace comparison: configs, per-trial seconds and incumbents.
void expect_identical(const TuneResult& a, const TuneResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.history.size(), b.history.size()) << what;
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_TRUE(a.history[i].config == b.history[i].config)
        << what << " trial " << i;
    EXPECT_EQ(a.history[i].seconds, b.history[i].seconds)
        << what << " trial " << i;
    EXPECT_EQ(a.history[i].best_seconds, b.history[i].best_seconds)
        << what << " trial " << i;
  }
  EXPECT_EQ(a.best_seconds, b.best_seconds) << what;
  EXPECT_TRUE(a.best == b.best) << what;
}

std::unique_ptr<Tuner> make_tuner(const std::string& kind,
                                  std::uint64_t seed) {
  if (kind == "random") return std::make_unique<RandomTuner>(seed);
  if (kind == "sa") return std::make_unique<SimulatedAnnealingTuner>(seed);
  if (kind == "ga") return std::make_unique<GeneticTuner>(seed);
  return std::make_unique<AteTuner>(seed);
}

// The reference every BatchMeasurer must agree with: each candidate in
// order through measure_config on one striped SimGpu.
class LoopMeasurer final : public Measurer {
 public:
  LoopMeasurer(SimGpu& gpu, const SearchDomain& domain, std::uint64_t seed)
      : gpu_(gpu), domain_(domain),
        inputs_(MeasureInputs::create(domain, seed)),
        out_(domain.shape().batch, domain.shape().cout,
             domain.shape().hout(), domain.shape().wout()) {}

  const SearchDomain& domain() const override { return domain_; }
  std::uint64_t trials() const override { return trials_; }
  std::vector<Measurement> measure_batch(
      const std::vector<ConvConfig>& cfgs) override {
    std::vector<Measurement> out;
    for (const ConvConfig& cfg : cfgs)
      out.push_back(measure_config(gpu_, domain_, *inputs_, out_, cfg));
    trials_ += cfgs.size();
    return out;
  }

 private:
  SimGpu& gpu_;
  SearchDomain domain_;
  std::shared_ptr<const MeasureInputs> inputs_;
  Tensor4<float> out_;
  std::uint64_t trials_ = 0;
};

class ParallelDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelDeterminism, HistoryIndependentOfWorkerCount) {
  const int kBudget = 32;
  const std::uint64_t kSeed = 11;
  SimGpu gpu(MachineSpec::v100());
  const auto domain = SearchDomain::build(small_shape(), gpu.spec());

  // Reference: the one-by-one measurement loop.
  LoopMeasurer serial(gpu, domain, kSeed);
  const TuneResult ref = make_tuner(GetParam(), kSeed)->run(serial, kBudget);
  ASSERT_EQ(ref.history.size(), static_cast<std::size_t>(kBudget));

  for (int workers : {1, 2, 8}) {
    BatchMeasurer batched(gpu.spec(), domain, kSeed, workers);
    EXPECT_EQ(batched.workers(), workers);
    const TuneResult res =
        make_tuner(GetParam(), kSeed)->run(batched, kBudget);
    expect_identical(ref, res,
                     GetParam() + " @" + std::to_string(workers) + "w");
  }
}

INSTANTIATE_TEST_SUITE_P(AllTuners, ParallelDeterminism,
                         ::testing::Values("random", "sa", "ga", "ate"));

TEST(BatchMeasurer, MatchesSerialMeasurementsExactly) {
  SimGpu gpu(MachineSpec::v100());
  const auto domain = SearchDomain::build(small_shape(), gpu.spec());
  LoopMeasurer serial(gpu, domain, 5);
  BatchMeasurer batched(gpu.spec(), domain, 5, 4);

  Rng rng(9);
  std::vector<ConvConfig> cfgs;
  for (int i = 0; i < 12; ++i) cfgs.push_back(domain.sample(rng));
  const auto ms = batched.measure_batch(cfgs);
  ASSERT_EQ(ms.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const Measurement ref = serial.measure(cfgs[i]);
    EXPECT_EQ(ms[i].valid, ref.valid) << i;
    EXPECT_EQ(ms[i].seconds, ref.seconds) << i;
    EXPECT_EQ(ms[i].stats.bytes_loaded, ref.stats.bytes_loaded) << i;
    EXPECT_EQ(ms[i].stats.bytes_stored, ref.stats.bytes_stored) << i;
    EXPECT_EQ(ms[i].stats.flops, ref.stats.flops) << i;
  }
  EXPECT_EQ(batched.trials(), cfgs.size());
}

TEST(BatchMeasurer, OneConfigOnOneWorkerMatchesManyWorkers) {
  // A one-config batch runs on the caller's thread with a striped launch;
  // spread over workers, the same config runs serially on a pool worker.
  SimGpu gpu(MachineSpec::v100());
  const auto domain = SearchDomain::build(small_shape(), gpu.spec());
  BatchMeasurer one(gpu.spec(), domain, 5, 1);
  BatchMeasurer many(gpu.spec(), domain, 5, 4);

  Rng rng(17);
  std::vector<ConvConfig> cfgs;
  for (int i = 0; i < 4; ++i) cfgs.push_back(domain.sample(rng));
  const auto spread = many.measure_batch(cfgs);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const Measurement a = one.measure(cfgs[i]);
    EXPECT_EQ(a.valid, spread[i].valid) << i;
    EXPECT_EQ(a.seconds, spread[i].seconds) << i;
    EXPECT_EQ(a.stats.bytes_loaded, spread[i].stats.bytes_loaded) << i;
    EXPECT_EQ(a.stats.bytes_stored, spread[i].stats.bytes_stored) << i;
    EXPECT_EQ(a.stats.flops, spread[i].stats.flops) << i;
    EXPECT_EQ(a.stats.num_blocks, spread[i].stats.num_blocks) << i;
  }
  EXPECT_EQ(one.trials(), cfgs.size());
}

TEST(BatchMeasurer, InvalidConfigsComeBackInvalidInBatch) {
  SimGpu gpu(MachineSpec::v100());
  const auto domain = SearchDomain::build(small_shape(), gpu.spec());
  BatchMeasurer batched(gpu.spec(), domain, 5, 2);

  Rng rng(3);
  ConvConfig bad;
  bad.x = bad.y = bad.z = 16;
  bad.smem_budget = 512;  // way too small
  const std::vector<ConvConfig> cfgs = {domain.sample(rng), bad,
                                        domain.sample(rng)};
  const auto ms = batched.measure_batch(cfgs);
  EXPECT_TRUE(ms[0].valid);
  EXPECT_FALSE(ms[1].valid);
  EXPECT_TRUE(std::isinf(ms[1].seconds));
  EXPECT_TRUE(ms[2].valid);
}

TEST(BatchMeasurer, EmptyBatchIsNoop) {
  SimGpu gpu(MachineSpec::v100());
  const auto domain = SearchDomain::build(small_shape(), gpu.spec());
  BatchMeasurer batched(gpu.spec(), domain);
  EXPECT_TRUE(batched.measure_batch({}).empty());
  EXPECT_EQ(batched.trials(), 0u);
}

TEST(BatchMeasurer, NestedInPoolMatchesSerialMeasurer) {
  // The tuned-warm shape: more measurers than pool threads, each built and
  // run inside a parallel_for index of the same pool it measures on. The
  // nested measure_batch must finish and stay bit-identical to one worker.
  SimGpu gpu(MachineSpec::v100());
  const auto domain = SearchDomain::build(small_shape(), gpu.spec());
  Rng rng(21);
  std::vector<ConvConfig> cfgs;
  for (int i = 0; i < 6; ++i) cfgs.push_back(domain.sample(rng));
  BatchMeasurer one(gpu.spec(), domain, 5, 1);
  const auto ref = one.measure_batch(cfgs);

  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::vector<std::vector<Measurement>> got(threads + 1);
    pool.parallel_for(0, threads + 1, [&](std::size_t s) {
      BatchMeasurer nested(gpu.spec(), domain, 5, 0, &pool);
      got[s] = nested.measure_batch(cfgs);
    });
    for (std::size_t s = 0; s < got.size(); ++s) {
      ASSERT_EQ(got[s].size(), ref.size()) << threads << " threads";
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(got[s][i].valid, ref[i].valid) << threads << "t " << i;
        EXPECT_EQ(got[s][i].seconds, ref[i].seconds) << threads << "t " << i;
        EXPECT_EQ(got[s][i].stats.bytes_loaded, ref[i].stats.bytes_loaded)
            << threads << "t " << i;
        EXPECT_EQ(got[s][i].stats.bytes_stored, ref[i].stats.bytes_stored)
            << threads << "t " << i;
        EXPECT_EQ(got[s][i].stats.flops, ref[i].stats.flops)
            << threads << "t " << i;
      }
    }
  }
}

LaunchConfig small_launch() {
  LaunchConfig cfg;
  cfg.num_blocks = 37;
  cfg.threads_per_block = 64;
  cfg.smem_bytes_per_block = 1024;
  return cfg;
}

void small_kernel(BlockContext& ctx) {
  auto span = ctx.smem().alloc<float>(16);
  float src[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  ctx.load(src, span.data(), 16);
  ctx.add_flops(2 * 16);
  float out[16];
  ctx.store(out, span.data(), 16);
}

TEST(SimGpuExecMode, SerialAndStripedCountIdentically) {
  SimGpu striped(MachineSpec::test_machine());
  SimGpu serial(MachineSpec::test_machine(), nullptr, ExecMode::kSerial);
  EXPECT_EQ(serial.exec_mode(), ExecMode::kSerial);

  const LaunchStats a = striped.launch(small_launch(), small_kernel);
  const LaunchStats b = serial.launch(small_launch(), small_kernel);
  EXPECT_EQ(a.bytes_loaded, b.bytes_loaded);
  EXPECT_EQ(a.bytes_stored, b.bytes_stored);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.sim_time, b.sim_time);
}

TEST(SimGpuExecMode, StripedLaunchFromOwnPoolWorkerCountsIdentically) {
  // A striped launch issued from a worker of its own pool runs its blocks
  // on that worker; counters and modelled time equal a serial launch.
  SimGpu serial(MachineSpec::test_machine(), nullptr, ExecMode::kSerial);
  const LaunchStats ref = serial.launch(small_launch(), small_kernel);

  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    SimGpu striped(MachineSpec::test_machine(), &pool);
    std::vector<LaunchStats> got(threads + 1);
    pool.parallel_for(0, threads + 1, [&](std::size_t s) {
      got[s] = striped.launch(small_launch(), small_kernel);
    });
    for (const LaunchStats& a : got) {
      EXPECT_EQ(a.bytes_loaded, ref.bytes_loaded) << threads << " threads";
      EXPECT_EQ(a.bytes_stored, ref.bytes_stored) << threads << " threads";
      EXPECT_EQ(a.flops, ref.flops) << threads << " threads";
      EXPECT_EQ(a.num_blocks, ref.num_blocks) << threads << " threads";
      EXPECT_EQ(a.sim_time, ref.sim_time) << threads << " threads";
    }
  }
}

TEST(Engine, BatchedAutotuneDeterministicAcrossWorkerCounts) {
  // autotune_conv runs one measurement replica per thread of the SimGpu's
  // pool, so the pool size is the worker count.
  ThreadPool pool1(1), pool8(8);
  SimGpu gpu1(MachineSpec::v100(), &pool1), gpu8(MachineSpec::v100(), &pool8);
  AutotuneOptions opts;
  opts.budget = 24;
  opts.seed = 4;

  const AutotuneOutcome one = autotune_conv(gpu1, small_shape(), opts);
  const AutotuneOutcome eight = autotune_conv(gpu8, small_shape(), opts);
  expect_identical(one.result, eight.result, "engine");
  EXPECT_EQ(one.best_gflops, eight.best_gflops);
  EXPECT_GT(one.best_gflops, 0);
}

TEST(ConvConfigHash, ConsistentWithEquality) {
  SimGpu gpu(MachineSpec::v100());
  const auto domain = SearchDomain::build(small_shape(), gpu.spec());
  Rng rng(13);
  const std::hash<ConvConfig> h;
  for (int i = 0; i < 50; ++i) {
    const ConvConfig a = domain.sample(rng);
    ConvConfig b = a;
    EXPECT_EQ(h(a), h(b));
    b.nxt = b.nxt == 1 ? 2 : 1;
    if (!(a == b)) {
      EXPECT_NE(h(a), h(b));
    }
  }
}

}  // namespace
}  // namespace convbound
