// LatencyHistogram + merge_snapshots: the exact-mergeable latency
// telemetry layer, including the regression test for the old
// completed-weighted "average of percentiles" fleet merge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "convbound/serve/stats.hpp"
#include "convbound/util/check.hpp"
#include "convbound/util/latency_histogram.hpp"
#include "convbound/util/rng.hpp"

namespace convbound {
namespace {

// The reference: linear interpolation between order statistics of the
// fully-sorted population — what the histogram quantiles approximate to
// within one 5% bucket.
// One 5% bucket of quantile error, plus a hair of slack for the linear
// interpolation between adjacent order statistics the exact reference uses
// (the histogram's answer stays inside the bucket holding the rank; the
// reference can sit up to one neighbour-gap outside it).
constexpr double kBucketSlack = LatencyHistogram::kGrowth - 1.0 + 0.005;

double exact_percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

// ------------------------------------------------- bucket ladder shape ----

TEST(LatencyHistogram, LadderCoversTheDeclaredRange) {
  // The top rung's upper edge must reach kMaxSeconds (the kRungs constant
  // is hand-computed; this pins it).
  EXPECT_GE(LatencyHistogram::bucket_upper(LatencyHistogram::kRungs),
            LatencyHistogram::kMaxSeconds);
  // ... and the ladder must not be wastefully deep: one fewer rung would
  // fall short.
  EXPECT_LT(LatencyHistogram::bucket_upper(LatencyHistogram::kRungs - 1),
            LatencyHistogram::kMaxSeconds);

  // Every rung is exactly one growth factor wide (5% relative resolution).
  for (int i = 1; i <= LatencyHistogram::kRungs; i += 37) {
    EXPECT_NEAR(LatencyHistogram::bucket_upper(i) /
                    LatencyHistogram::bucket_lower(i),
                LatencyHistogram::kGrowth, 1e-9)
        << "rung " << i;
  }
}

TEST(LatencyHistogram, BucketIndexMatchesEdges) {
  EXPECT_EQ(LatencyHistogram::bucket_index(0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_index(0.9e-6), 0);  // underflow
  EXPECT_EQ(LatencyHistogram::bucket_index(1e-6), 1);    // first rung
  EXPECT_EQ(LatencyHistogram::bucket_index(100.0),
            LatencyHistogram::kBuckets - 1);  // overflow
  EXPECT_EQ(LatencyHistogram::bucket_index(1e9),
            LatencyHistogram::kBuckets - 1);
  // Every recorded value lands in a bucket whose edges contain it.
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const double v = 1e-6 * std::pow(10.0, rng.uniform() * 8.0);  // 1µs..100s
    const int b = LatencyHistogram::bucket_index(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, LatencyHistogram::kBuckets);
    if (b < LatencyHistogram::kBuckets - 1) {
      // Float rounding can put an edge value one bucket off; containment
      // within the widened pair of edges is the property that matters.
      EXPECT_LE(LatencyHistogram::bucket_lower(b), v * 1.0000001);
      EXPECT_GT(LatencyHistogram::bucket_upper(b), v * 0.9999999);
    }
  }
}

// -------------------------------------------------- record + quantiles ----

TEST(LatencyHistogram, ExactCountSumMinMax) {
  LatencyHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.quantile(0.5), 0);
  h.record(2e-3);
  h.record(4e-3);
  h.record(1e-3);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 7e-3);
  EXPECT_DOUBLE_EQ(h.mean(), 7e-3 / 3);
  EXPECT_DOUBLE_EQ(h.min_value(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max_value(), 4e-3);
  // Quantiles are clamped to the exact extremes.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1e-3);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4e-3);
}

TEST(LatencyHistogram, QuantilesWithinOneBucketOfExact) {
  // Log-uniform latencies over 4 decades — every quantile must sit within
  // 5% (one bucket) of the sorted-population value.
  Rng rng(7);
  LatencyHistogram h;
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    const double v = 1e-5 * std::pow(10.0, rng.uniform() * 4.0);
    values.push_back(v);
    h.record(v);
  }
  for (double q : {0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999}) {
    const double exact = exact_percentile(values, q);
    const double approx = h.quantile(q);
    EXPECT_NEAR(approx / exact, 1.0, kBucketSlack)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
}

TEST(LatencyHistogram, OutOfLadderValuesUseExactExtremes) {
  LatencyHistogram h;
  h.record(1e-9);   // below the ladder
  h.record(-1.0);   // clamped to 0
  h.record(250.0);  // overflow
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kBuckets - 1), 1u);
  EXPECT_DOUBLE_EQ(h.max_value(), 250.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 250.0);  // overflow pins to exact max
  EXPECT_DOUBLE_EQ(h.min_value(), 0.0);
}

// ----------------------------------------------------- merge semantics ----

TEST(LatencyHistogram, MergeIsBucketwiseAddition) {
  Rng rng(11);
  LatencyHistogram a, b, whole;
  for (int i = 0; i < 3000; ++i) {
    const double v = 1e-5 * std::pow(10.0, rng.uniform() * 3.0);
    (i % 3 == 0 ? a : b).record(v);
    whole.record(v);
  }
  LatencyHistogram merged = a;
  merged.merge(b);
  EXPECT_TRUE(merged.same_buckets(whole));
  EXPECT_EQ(merged.count(), whole.count());
  // Sums agree up to float addition order (merge adds two partial sums,
  // the reference added value by value).
  EXPECT_NEAR(merged.sum(), whole.sum(), 1e-9 * whole.sum());
  EXPECT_DOUBLE_EQ(merged.min_value(), whole.min_value());
  EXPECT_DOUBLE_EQ(merged.max_value(), whole.max_value());
  // Merging is associative on buckets, so any quantile of the merge equals
  // the quantile of the one-histogram population bit for bit.
  for (double q : {0.5, 0.95, 0.99})
    EXPECT_DOUBLE_EQ(merged.quantile(q), whole.quantile(q));

  LatencyHistogram empty;
  merged.merge(empty);  // no-op
  EXPECT_TRUE(merged.same_buckets(whole));
}

// ------------------------------------------------------- serialization ----

TEST(LatencyHistogram, SerializeRoundTrip) {
  Rng rng(13);
  LatencyHistogram h;
  for (int i = 0; i < 500; ++i)
    h.record(1e-6 * std::pow(10.0, rng.uniform() * 7.0));
  h.record(0);
  h.record(500.0);
  const LatencyHistogram back = LatencyHistogram::deserialize(h.serialize());
  EXPECT_TRUE(back.same_buckets(h));
  EXPECT_EQ(back.count(), h.count());
  EXPECT_DOUBLE_EQ(back.sum(), h.sum());
  EXPECT_DOUBLE_EQ(back.min_value(), h.min_value());
  EXPECT_DOUBLE_EQ(back.max_value(), h.max_value());
  for (double q : {0.5, 0.99})
    EXPECT_DOUBLE_EQ(back.quantile(q), h.quantile(q));

  const LatencyHistogram none =
      LatencyHistogram::deserialize(LatencyHistogram().serialize());
  EXPECT_TRUE(none.empty());
}

TEST(LatencyHistogram, DeserializeRejectsMalformedInput) {
  EXPECT_THROW(LatencyHistogram::deserialize(""), Error);
  EXPECT_THROW(LatencyHistogram::deserialize("v2 0 0 0 0"), Error);
  EXPECT_THROW(LatencyHistogram::deserialize("v1 1 0 0 0 nonsense"), Error);
  EXPECT_THROW(LatencyHistogram::deserialize("v1 1 0 0 0 99999:1"), Error);
  // Header count disagreeing with the bucket sum is corruption, not noise.
  EXPECT_THROW(LatencyHistogram::deserialize("v1 5 0 0 0 10:1"), Error);
}

// ------------------------------------- fleet merge regression (the bug) ----

// The headline bugfix test: a heterogeneous two-device fleet where the fast
// device serves ~98.5% of traffic around 1ms and the slow device absorbs
// the ~1.5% bandwidth-bound tail around 200ms (jittered so the populations
// are realistic, not two spikes). The true fleet p99 lives in the slow
// device's mass. The old merge — a completed-weighted average of
// per-device p99s — mixes 9850 parts ~1ms into the figure and understates
// the tail by ~30x; the histogram merge must land within one 5% bucket of
// the exact sorted-population percentile.
TEST(MergeSnapshots, SkewedFleetP99IsExactNotWeighted) {
  Rng rng(20260727);
  ServerStats fast_stats, slow_stats;
  std::vector<double> all;

  const auto feed = [&](ServerStats& stats, int n, double center) {
    std::vector<double> batch;
    for (int i = 0; i < n; ++i) {
      const double v = center * (0.9 + 0.2 * rng.uniform());
      batch.push_back(v);
      all.push_back(v);
      if (batch.size() == 8) {
        stats.record_batch(batch.size(), 1e-4, batch);
        batch.clear();
      }
    }
    if (!batch.empty()) stats.record_batch(batch.size(), 1e-4, batch);
  };
  feed(fast_stats, 9850, 1e-3);   // fast device: ~1ms latencies
  feed(slow_stats, 150, 200e-3);  // slow device: the ~200ms tail

  const StatsSnapshot fast = fast_stats.snapshot();
  const StatsSnapshot slow = slow_stats.snapshot();
  const StatsSnapshot fleet = merge_snapshots({fast, slow});
  ASSERT_EQ(fleet.completed, all.size());

  const double exact_p99 = exact_percentile(all, 0.99);
  // Sanity on the scenario itself: the true tail is in the slow mass.
  ASSERT_GT(exact_p99, 0.1);

  // The fix: bucket-exact fleet percentiles after the merge — within one
  // 5% bucket of the exact sorted-latency value.
  EXPECT_NEAR(fleet.latency_p99 / exact_p99, 1.0, kBucketSlack)
      << "exact=" << exact_p99 << " histogram=" << fleet.latency_p99;
  EXPECT_NEAR(fleet.latency_p50 / exact_percentile(all, 0.50), 1.0,
              kBucketSlack);
  EXPECT_DOUBLE_EQ(fleet.latency_max,
                   *std::max_element(all.begin(), all.end()));

  // The bug: the old completed-weighted average of per-device percentiles,
  // recomputed here from the same per-device snapshots, is off by far more
  // than the acceptance threshold (≥30% relative error; actually ~97%
  // understated on this fleet).
  const double w_fast = static_cast<double>(fast.completed);
  const double w_slow = static_cast<double>(slow.completed);
  const double weighted_p99 =
      (w_fast * fast.latency_p99 + w_slow * slow.latency_p99) /
      (w_fast + w_slow);
  const double weighted_error = std::abs(weighted_p99 - exact_p99) / exact_p99;
  EXPECT_GE(weighted_error, 0.30)
      << "weighted=" << weighted_p99 << " exact=" << exact_p99;
}

// The opposite skew — the tail inside the *fast* device's own p99 — where
// the weighted average overstates instead: per-device percentiles are
// simply not mergeable in either direction, while the histogram stays
// bucket-exact.
TEST(MergeSnapshots, WeightedAverageOverstatesWhenTailIsThin) {
  Rng rng(4242);
  ServerStats fast_stats, slow_stats;
  std::vector<double> all;
  const auto feed = [&](ServerStats& stats, int n, double center) {
    for (int i = 0; i < n; ++i) {
      const double v = center * (0.9 + 0.2 * rng.uniform());
      all.push_back(v);
      stats.record_batch(1, 1e-4, {v});
    }
  };
  feed(fast_stats, 9950, 1e-3);  // 99.5%: the fleet p99 stays ~1ms
  feed(slow_stats, 50, 200e-3);

  const StatsSnapshot fast = fast_stats.snapshot();
  const StatsSnapshot slow = slow_stats.snapshot();
  const StatsSnapshot fleet = merge_snapshots({fast, slow});

  const double exact_p99 = exact_percentile(all, 0.99);
  ASSERT_LT(exact_p99, 2e-3);  // tail too thin to reach the slow mass
  EXPECT_NEAR(fleet.latency_p99 / exact_p99, 1.0, kBucketSlack);

  const double weighted_p99 =
      (static_cast<double>(fast.completed) * fast.latency_p99 +
       static_cast<double>(slow.completed) * slow.latency_p99) /
      static_cast<double>(fast.completed + slow.completed);
  EXPECT_GE(std::abs(weighted_p99 - exact_p99) / exact_p99, 0.30);
}

// ------------------------------------ striped front-door stats (sharded) ----

// Regression for the sharded front door's counter fold: the cluster's
// fleet-snapshot override (PR 6) takes the front-door counters from the
// front stats object *before* the device merge. With striped stats that
// object holds one stripe per ingest shard, and the fold must sum every
// stripe — reading stripe 0 (the natural porting mistake) reports only the
// slice of traffic that hashed to shard 0. The stripes here are
// deliberately skewed so that mistake cannot pass.
TEST(StripedServerStats, SnapshotFoldsSkewedStripesNotStripeZero) {
  StripedServerStats stats(4);
  ASSERT_EQ(stats.num_stripes(), 4u);
  stats.mark_start();

  // Heavily skewed: stripe 0 sees almost nothing; stripe 2 carries the
  // submit volume; rejections land on stripes 1 and 3; expiry and the
  // completions live on the exec stripe.
  stats.stripe(0).record_submitted(1, "paid");
  for (int i = 0; i < 100; ++i)
    stats.stripe(2).record_submitted(static_cast<std::size_t>(i), "paid");
  for (int i = 0; i < 7; ++i)
    stats.stripe(1).record_rejected(ServeStatus::kRejected, "free");
  for (int i = 0; i < 5; ++i)
    stats.stripe(3).record_rejected(ServeStatus::kQuotaExceeded, "free");
  stats.exec_stripe().record_expired(3, "free");
  stats.exec_stripe().record_batch(2, 1e-3, {1e-3, 2e-3}, {"paid", "paid"});

  const StatsSnapshot s = stats.snapshot();
  EXPECT_EQ(s.submitted, 1u + 100u + 7u + 5u);  // rejects count as submits
  EXPECT_EQ(s.rejected, 7u);
  EXPECT_EQ(s.quota_rejected, 5u);
  EXPECT_EQ(s.expired, 3u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.batches, 1u);
  // The queue-depth watermark is the max over stripes' samples (each
  // sample is a *global* depth), not stripe 0's local high-water mark.
  EXPECT_EQ(s.max_queue_depth, 99u);
  // Per-class slices fold the same way.
  ASSERT_TRUE(s.classes.count("paid"));
  ASSERT_TRUE(s.classes.count("free"));
  EXPECT_EQ(s.classes.at("paid").submitted, 101u);
  EXPECT_EQ(s.classes.at("paid").completed, 2u);
  EXPECT_EQ(s.classes.at("free").rejected, 7u);
  EXPECT_EQ(s.classes.at("free").quota_rejected, 5u);
  EXPECT_EQ(s.classes.at("free").expired, 3u);
  // Latency telemetry (exec stripe only here) survives the fold exactly.
  EXPECT_DOUBLE_EQ(s.latency_max, 2e-3);
  EXPECT_EQ(s.latency.count(), 2u);

  // The regression itself: stripe 0 alone is nowhere near the fold — any
  // consumer reading one stripe as "the front door" undercounts ~100x.
  const StatsSnapshot stripe0 = stats.stripe(0).snapshot();
  EXPECT_EQ(stripe0.submitted, 1u);
  EXPECT_LT(stripe0.submitted * 50, s.submitted);
}

// ------------------------------------- stage decomposition + shed reasons ----

TEST(ServerStats, RecordsStagesAndShutdownRejections) {
  ServerStats stats;
  stats.mark_start();
  stats.record_rejected(ServeStatus::kShutdown, "paid");
  stats.record_rejected(ServeStatus::kShutdown);
  std::vector<ServerStats::StageLatencies> stages(2);
  stages[0] = {1e-3, 2e-3, 3e-3};   // sums to the 6ms latency below
  stages[1] = {4e-3, 5e-3, 11e-3};  // sums to 20ms
  stats.record_batch(2, 1e-4, {6e-3, 20e-3}, {"paid", "paid"}, stages);

  const StatsSnapshot s = stats.snapshot();
  // Shutdown rejections count as submissions (a client reached the door),
  // and land in their own shed counter, split from queue-full rejections.
  EXPECT_EQ(s.submitted, 2u);
  EXPECT_EQ(s.shutdown_rejected, 2u);
  EXPECT_EQ(s.rejected, 0u);
  ASSERT_TRUE(s.classes.count("paid"));
  EXPECT_EQ(s.classes.at("paid").shutdown_rejected, 1u);

  // Stage histograms hold one entry per completion and their sums obey the
  // accounting identity against the end-to-end latency sum.
  EXPECT_EQ(s.queue_wait.count(), 2u);
  EXPECT_EQ(s.batch_delay.count(), 2u);
  EXPECT_EQ(s.exec.count(), 2u);
  EXPECT_NEAR(s.queue_wait.sum() + s.batch_delay.sum() + s.exec.sum(),
              s.latency.sum(), 1e-12);
  EXPECT_GT(s.queue_wait_p99, 0.0);
  EXPECT_GT(s.exec_mean, 0.0);
  EXPECT_EQ(s.classes.at("paid").queue_wait.count(), 2u);
  EXPECT_GT(s.classes.at("paid").exec_p99, 0.0);
}

TEST(ShardImbalanceRatio, MaxOverMean) {
  EXPECT_DOUBLE_EQ(shard_imbalance_ratio({}), 0.0);
  EXPECT_DOUBLE_EQ(shard_imbalance_ratio({0, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(shard_imbalance_ratio({4, 4, 4, 4}), 1.0);
  // max 8 over mean 4 = 2.
  EXPECT_DOUBLE_EQ(shard_imbalance_ratio({8, 4, 0, 4}), 2.0);
}

// Pins the fleet-merge fix: snapshot-time queue_depth SUMS across parts
// (total queued population on the fleet), while max_queue_depth keeps the
// max; shard vectors add element-wise (resizing to the widest part) and
// the imbalance ratio is recomputed from the merged high-water marks.
TEST(MergeSnapshots, QueueDepthSumsShardVectorsAddStagesMerge) {
  ServerStats a_stats, b_stats;
  std::vector<ServerStats::StageLatencies> st_a(1), st_b(1);
  st_a[0] = {1e-3, 1e-3, 2e-3};
  st_b[0] = {10e-3, 5e-3, 15e-3};
  a_stats.record_batch(1, 1e-4, {4e-3}, {}, st_a);
  b_stats.record_batch(1, 1e-4, {30e-3}, {}, st_b);
  a_stats.record_rejected(ServeStatus::kShutdown);

  StatsSnapshot a = a_stats.snapshot();
  StatsSnapshot b = b_stats.snapshot();
  a.queue_depth = 10;
  a.max_queue_depth = 12;
  a.shard_depths = {4, 6};
  a.shard_max_depths = {8, 4};
  b.queue_depth = 3;
  b.max_queue_depth = 9;
  b.shard_depths = {1, 1, 1};  // wider part: a 2-shard and a 3-shard door
  b.shard_max_depths = {0, 4, 4};

  const StatsSnapshot fleet = merge_snapshots({a, b});
  EXPECT_EQ(fleet.queue_depth, 13u);       // sum — the fix
  EXPECT_EQ(fleet.max_queue_depth, 12u);   // still the max
  EXPECT_EQ(fleet.shutdown_rejected, 1u);
  ASSERT_EQ(fleet.shard_depths.size(), 3u);
  EXPECT_EQ(fleet.shard_depths[0], 5u);
  EXPECT_EQ(fleet.shard_depths[2], 1u);
  ASSERT_EQ(fleet.shard_max_depths.size(), 3u);
  EXPECT_EQ(fleet.shard_max_depths[0], 8u);
  EXPECT_EQ(fleet.shard_max_depths[1], 8u);
  // Recomputed from the merged marks: max 8 over mean (8+8+4)/3.
  EXPECT_NEAR(fleet.shard_imbalance, 8.0 / (20.0 / 3.0), 1e-12);

  // Stage histograms merged bucket-wise and re-derived.
  EXPECT_EQ(fleet.queue_wait.count(), 2u);
  EXPECT_NEAR(fleet.queue_wait.sum() + fleet.batch_delay.sum() +
                  fleet.exec.sum(),
              fleet.latency.sum(), 1e-12);
  EXPECT_GT(fleet.exec_p99, 0.0);
  EXPECT_GE(fleet.queue_wait_p99, fleet.queue_wait_p50);
}

}  // namespace
}  // namespace convbound
