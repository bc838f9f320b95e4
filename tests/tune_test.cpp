#include <gtest/gtest.h>

#include <numeric>

#include "convbound/ml/gbt.hpp"
#include "convbound/tune/batch_measure.hpp"
#include "convbound/tune/domain.hpp"
#include "convbound/tune/engine.hpp"
#include "convbound/tune/features.hpp"
#include "convbound/tune/tuners.hpp"

namespace convbound {
namespace {

ConvShape small_shape() {
  ConvShape s;
  s.cin = 16;
  s.hin = s.win = 18;  // hout = wout = 16 with 3x3 pad 1... set pad below
  s.cout = 16;
  s.kh = s.kw = 3;
  s.stride = 1;
  s.pad = 1;
  s.hin = s.win = 16;
  return s;
}

TEST(Domain, BuildsNonEmpty) {
  const auto d = SearchDomain::build(small_shape(), MachineSpec::v100());
  EXPECT_GT(d.size(), 0u);
  EXPECT_FALSE(d.xs().empty());
  EXPECT_FALSE(d.smem_choices().empty());
}

TEST(Domain, PrunedIsSubsetOfUnpruned) {
  const ConvShape s = small_shape();
  DomainOptions pruned, full;
  pruned.prune_with_optimality = true;
  full.prune_with_optimality = false;
  const auto dp = SearchDomain::build(s, MachineSpec::v100(), pruned);
  const auto df = SearchDomain::build(s, MachineSpec::v100(), full);
  EXPECT_LT(dp.size(), df.size());
  // Every pruned sample must also satisfy the unpruned domain.
  Rng rng(1);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(df.contains(dp.sample(rng)));
}

TEST(Domain, PruningRatioInPaperRange) {
  // Table 2 reports ~20-55% for direct convolution; verify the same order
  // of magnitude on an AlexNet-like layer.
  ConvShape s;
  s.cin = 256;
  s.hin = s.win = 13;
  s.cout = 384;
  s.kh = s.kw = 3;
  s.pad = 1;
  const auto dp = SearchDomain::build(
      s, MachineSpec::v100(), {.prune_with_optimality = true});
  const auto df = SearchDomain::build(
      s, MachineSpec::v100(), {.prune_with_optimality = false});
  const double ratio =
      static_cast<double>(dp.size()) / static_cast<double>(df.size());
  EXPECT_GT(ratio, 0.02);
  EXPECT_LT(ratio, 0.8);
}

TEST(Domain, SamplesAreContained) {
  const auto d = SearchDomain::build(small_shape(), MachineSpec::v100());
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const ConvConfig c = d.sample(rng);
    EXPECT_TRUE(d.contains(c)) << c.to_string();
    EXPECT_LE(c.threads(), MachineSpec::v100().max_threads_per_block);
    EXPECT_EQ(c.x % c.nxt, 0);
  }
}

TEST(Domain, NeighborsAreContainedAndDiffer) {
  const auto d = SearchDomain::build(small_shape(), MachineSpec::v100());
  Rng rng(9);
  const ConvConfig c = d.sample(rng);
  const auto moves = d.neighbors(c);
  EXPECT_FALSE(moves.empty());
  for (const auto& m : moves) {
    EXPECT_TRUE(d.contains(m)) << m.to_string();
    EXPECT_FALSE(m == c);
  }
}

TEST(Domain, WinogradTilesAreMultiplesOfE) {
  DomainOptions opts;
  opts.winograd = true;
  opts.e = 2;
  const auto d = SearchDomain::build(small_shape(), MachineSpec::v100(), opts);
  for (std::int64_t x : d.xs()) EXPECT_EQ(x % 2, 0);
  for (std::int64_t y : d.ys()) EXPECT_EQ(y % 2, 0);
}

TEST(Features, ArityMatchesAndIsFinite) {
  const auto d = SearchDomain::build(small_shape(), MachineSpec::v100());
  Rng rng(3);
  const auto f = config_features(d, d.sample(rng));
  EXPECT_EQ(f.size(), config_feature_arity());
  for (double v : f) EXPECT_TRUE(std::isfinite(v));
}

TEST(Features, DistinguishLayouts) {
  const auto d = SearchDomain::build(small_shape(), MachineSpec::v100());
  Rng rng(3);
  ConvConfig a = d.sample(rng);
  ConvConfig b = a;
  b.layout = a.layout == Layout::kNCHW ? Layout::kNHWC : Layout::kNCHW;
  EXPECT_NE(config_features(d, a), config_features(d, b));
}

TEST(Measurer, MeasuresValidConfig) {
  SimGpu gpu(MachineSpec::v100());
  const auto d = SearchDomain::build(small_shape(), gpu.spec());
  BatchMeasurer m(gpu.spec(), d);
  Rng rng(5);
  const Measurement r = m.measure(d.sample(rng));
  EXPECT_TRUE(r.valid);
  EXPECT_GT(r.seconds, 0);
  EXPECT_GT(m.gflops(r.seconds), 0);
  EXPECT_EQ(m.trials(), 1u);
}

TEST(Measurer, InvalidConfigIsInfinite) {
  SimGpu gpu(MachineSpec::v100());
  const auto d = SearchDomain::build(small_shape(), gpu.spec());
  BatchMeasurer m(gpu.spec(), d);
  ConvConfig c;
  c.x = 16;
  c.y = 16;
  c.z = 16;
  c.smem_budget = 512;  // way too small
  const Measurement r = m.measure(c);
  EXPECT_FALSE(r.valid);
  EXPECT_TRUE(std::isinf(r.seconds));
}

class TunerSmoke : public ::testing::TestWithParam<int> {};

TEST(Tuners, AllFindValidConfigs) {
  SimGpu gpu(MachineSpec::v100());
  const auto d = SearchDomain::build(small_shape(), gpu.spec());
  std::vector<std::unique_ptr<Tuner>> tuners;
  tuners.push_back(std::make_unique<RandomTuner>(1));
  tuners.push_back(std::make_unique<SimulatedAnnealingTuner>(1));
  tuners.push_back(std::make_unique<GeneticTuner>(1));
  tuners.push_back(std::make_unique<AteTuner>(1));
  for (auto& t : tuners) {
    BatchMeasurer m(gpu.spec(), d);
    const TuneResult r = t->run(m, 24);
    EXPECT_EQ(r.history.size(), 24u) << t->name();
    EXPECT_LT(r.best_seconds, 1e30) << t->name();
    EXPECT_TRUE(d.contains(r.best)) << t->name();
    // best_seconds trace is non-increasing.
    for (std::size_t i = 1; i < r.history.size(); ++i)
      EXPECT_LE(r.history[i].best_seconds, r.history[i - 1].best_seconds);
  }
}

TEST(Tuners, AteBeatsOrMatchesRandomOnSameBudget) {
  SimGpu gpu(MachineSpec::v100());
  ConvShape s;
  s.cin = 32;
  s.hin = s.win = 28;
  s.cout = 64;
  s.kh = s.kw = 3;
  s.pad = 1;
  const auto d = SearchDomain::build(s, gpu.spec());
  BatchMeasurer m_ate(gpu.spec(), d), m_rnd(gpu.spec(), d);
  AteTuner ate(3);
  RandomTuner rnd(3);
  const TuneResult ra = ate.run(m_ate, 48);
  const TuneResult rr = rnd.run(m_rnd, 48);
  EXPECT_LE(ra.best_seconds, rr.best_seconds * 1.15);
}

TEST(Tuners, ConvergenceTrialWellDefined) {
  SimGpu gpu(MachineSpec::v100());
  const auto d = SearchDomain::build(small_shape(), gpu.spec());
  BatchMeasurer m(gpu.spec(), d);
  RandomTuner t(2);
  const TuneResult r = t.run(m, 16);
  const int conv = r.trials_to_converge();
  EXPECT_GE(conv, 1);
  EXPECT_LE(conv, 16);
}

TEST(Engine, AutotunesEndToEnd) {
  SimGpu gpu(MachineSpec::v100());
  AutotuneOptions opts;
  opts.budget = 20;
  const AutotuneOutcome out = autotune_conv(gpu, small_shape(), opts);
  EXPECT_GT(out.best_gflops, 0);
  EXPECT_TRUE(out.domain.contains(out.result.best));
}

TEST(Engine, WinogradDomainTunes) {
  SimGpu gpu(MachineSpec::v100());
  AutotuneOptions opts;
  opts.budget = 16;
  opts.winograd = true;
  const AutotuneOutcome out = autotune_conv(gpu, small_shape(), opts);
  EXPECT_GT(out.best_gflops, 0);
}


/// Spearman rank correlation between two equally sized vectors.
double rank_correlation(std::vector<double> a, std::vector<double> b) {
  auto ranks = [](std::vector<double> v) {
    std::vector<std::size_t> idx(v.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t x, std::size_t y) { return v[x] < v[y]; });
    std::vector<double> r(v.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
      r[idx[i]] = static_cast<double>(i);
    return r;
  };
  const auto ra = ranks(std::move(a)), rb = ranks(std::move(b));
  const double n = static_cast<double>(ra.size());
  double d2 = 0;
  for (std::size_t i = 0; i < ra.size(); ++i)
    d2 += (ra[i] - rb[i]) * (ra[i] - rb[i]);
  return 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
}

TEST(CostModel, GbtRanksRealMeasurements) {
  // The engine's premise: a GBT trained on measured runtimes must rank
  // unseen configurations usefully (TVM reports the same property for
  // XGBoost). Train on 48 measured configs, evaluate rank correlation on
  // 24 held-out ones.
  SimGpu gpu(MachineSpec::v100());
  ConvShape s;
  s.cin = 32;
  s.hin = s.win = 28;
  s.cout = 64;
  s.kh = s.kw = 3;
  s.pad = 1;
  const auto domain = SearchDomain::build(s, gpu.spec());
  BatchMeasurer m(gpu.spec(), domain, 3);
  Rng rng(3);

  std::vector<std::vector<double>> X;
  std::vector<double> y;
  for (int i = 0; i < 48; ++i) {
    const ConvConfig cfg = domain.sample(rng);
    const Measurement meas = m.measure(cfg);
    if (!meas.valid) continue;
    X.push_back(config_features(domain, cfg));
    y.push_back(std::log(meas.seconds));
  }
  ASSERT_GE(X.size(), 32u);
  Gbt model;
  model.fit(X, y);

  std::vector<double> predicted, actual;
  for (int i = 0; i < 24; ++i) {
    const ConvConfig cfg = domain.sample(rng);
    const Measurement meas = m.measure(cfg);
    if (!meas.valid) continue;
    predicted.push_back(model.predict(config_features(domain, cfg)));
    actual.push_back(std::log(meas.seconds));
  }
  ASSERT_GE(predicted.size(), 16u);
  EXPECT_GT(rank_correlation(predicted, actual), 0.5);
}

}  // namespace
}  // namespace convbound
