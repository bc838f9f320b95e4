// The single-device serving contract: bound-guided batch policy, tenancy,
// and a server that is a fleet of one — the cluster front door with one
// V100 whose pending cap equals its worker count, the serve CLI's shape.
// The pipeline and lifecycle contracts shared with the heterogeneous fleet
// run over both fleet sizes in cluster_test (FleetServe.*); the queue's
// own contract is in sharded_queue_test.
#include <gtest/gtest.h>

#include <future>
#include <thread>
#include <vector>

#include "convbound/cluster/cluster.hpp"
#include "convbound/serve/batch_policy.hpp"
#include "convbound/serve/model.hpp"
#include "convbound/util/rng.hpp"

namespace convbound {
namespace {

// Small pipelines with randomized geometries (fixed seed): strided,
// grouped, and Winograd-eligible layers all appear across the three
// models, so the serving path exercises every dataflow family.
std::vector<ServedModel> tiny_models() {
  Rng rng(20260727);
  std::vector<ServedModel> models;
  for (int m = 0; m < 3; ++m) {
    std::vector<ConvLayer> layers;
    const int depth = 2 + m % 2;
    for (int l = 0; l < depth; ++l) {
      ConvShape s;
      s.cin = 2 * rng.range(1, 3);
      s.cout = 2 * rng.range(1, 3);
      s.hin = s.win = rng.range(8, 14);
      s.kh = s.kw = 3;
      s.stride = (m == 1 && l == 0) ? 2 : 1;
      s.pad = 1;
      if (m == 2 && l == 0) {  // grouped head
        s.cin = s.cout = 4;
        s.groups = 2;
      }
      s.validate();
      layers.push_back({"m" + std::to_string(m) + "_l" + std::to_string(l), s});
    }
    models.push_back(
        make_served_model("tiny" + std::to_string(m), layers, {}));
  }
  return models;
}

/// One V100 with `workers` executor workers and one pending group per
/// worker, so groups form only once a worker is free.
ClusterOptions tiny_options(int workers = 3) {
  DeviceConfig d;
  d.spec = MachineSpec::v100();
  d.workers = workers;
  d.replicas = 2;
  d.max_pending_groups = workers;
  ClusterOptions opts;
  opts.devices = {d};
  opts.max_queue = 512;
  opts.max_delay = std::chrono::microseconds(500);
  opts.batch_policy.max_bucket = 4;
  return opts;
}

// ------------------------------------------------------- batch policy ----

TEST(BatchPolicy, BoundGuidedBucketSitsAtTheKnee) {
  const auto models = tiny_models();
  BatchPolicyOptions opts;
  opts.max_bucket = 8;
  const BucketChoice c =
      choose_batch_bucket(models[0], MachineSpec::v100(), opts);
  ASSERT_EQ(c.scores.size(), 4u);  // 1, 2, 4, 8
  // Launch-overhead amortisation: per-request predicted time never gets
  // worse with batching on these tiny layers.
  for (std::size_t i = 1; i < c.scores.size(); ++i)
    EXPECT_LE(c.scores[i].predicted_seconds_per_request,
              c.scores[i - 1].predicted_seconds_per_request * 1.001);
  EXPECT_GT(c.bucket, 1);  // batching predicted to pay off
  // The chosen bucket is a scored candidate and marked as chosen.
  bool found = false;
  for (const auto& s : c.scores)
    if (s.bucket == c.bucket) found = s.chosen;
  EXPECT_TRUE(found);

  // A tight latency budget forces small batches.
  BatchPolicyOptions tight = opts;
  tight.latency_budget_seconds = 1e-12;
  EXPECT_EQ(choose_batch_bucket(models[0], MachineSpec::v100(), tight).bucket,
            1);
}

// ------------------------------------------------ backpressure & stop ----

TEST(Serve, BackpressureRejectsDeterministicallyBeforeStart) {
  auto models = tiny_models();
  ClusterOptions opts = tiny_options();
  opts.max_queue = 2;
  ClusterServer server(models, opts);

  // Not started: nothing drains the queue, so the third submit must be
  // rejected by the bounded queue.
  const Tensor4<float> input = make_request_input(models[0], 1);
  auto f1 = server.submit({models[0].name, input});
  auto f2 = server.submit({models[0].name, input});
  auto f3 = server.submit({models[0].name, input});
  EXPECT_EQ(f3.get().status, ServeStatus::kRejected);

  server.start();  // now the two queued requests get served
  EXPECT_EQ(f1.get().status, ServeStatus::kOk);
  EXPECT_EQ(f2.get().status, ServeStatus::kOk);
  const StatsSnapshot s = server.stats().fleet;
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.completed, 2u);
  server.stop();

  // After stop, submits complete immediately with kShutdown.
  EXPECT_EQ(server.submit({models[0].name, input}).get().status,
            ServeStatus::kShutdown);
}

TEST(Serve, ExpiredDeadlineIsDroppedNotExecuted) {
  auto models = tiny_models();
  ClusterServer server(models, tiny_options());
  const Tensor4<float> input = make_request_input(models[0], 3);

  InferRequest expired{models[0].name, input,
                       ServeClock::now() - std::chrono::seconds(1)};
  auto f1 = server.submit(std::move(expired));
  auto f2 = server.submit({models[0].name, input});  // no deadline
  server.start();

  EXPECT_EQ(f1.get().status, ServeStatus::kDeadlineExceeded);
  EXPECT_EQ(f2.get().status, ServeStatus::kOk);
  EXPECT_EQ(server.stats().fleet.expired, 1u);
  server.stop();
}

TEST(Serve, ExpiredSubmitUnderSaturationResolvesAndFreesQueueBudget) {
  // A saturated server: enough queued work that an expired request would
  // previously ride the whole max-delay + executor-slot wait before its
  // kDeadlineExceeded resolved, holding a queue slot the entire time. The
  // queue-level sweep must answer it and give the slot back to live
  // traffic.
  auto models = tiny_models();
  ClusterOptions opts = tiny_options(/*workers=*/1);
  opts.max_queue = 64;
  ClusterServer server(models, opts);
  server.start();

  const Tensor4<float> input = make_request_input(models[0], 5);
  std::vector<std::future<InferResponse>> live;
  for (int i = 0; i < 24; ++i)
    live.push_back(server.submit({models[0].name, input}));
  auto dead = server.submit({models[0].name, input,
                             ServeClock::now() - std::chrono::seconds(1)});
  for (int i = 0; i < 24; ++i)
    live.push_back(server.submit({models[0].name, input}));

  EXPECT_EQ(dead.get().status, ServeStatus::kDeadlineExceeded);
  for (auto& f : live) EXPECT_EQ(f.get().status, ServeStatus::kOk);
  const StatsSnapshot s = server.stats().fleet;
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(s.completed, 48u);
  EXPECT_EQ(s.rejected, 0u);
  server.stop();
}

TEST(BatchPolicy, FeasibilityChargesTheGroupFormationDelay) {
  // The budget must cover max_delay + predicted batch time: a bucket whose
  // batch alone fits is still infeasible when the scheduler's formation
  // window eats the headroom.
  const auto models = tiny_models();
  const MachineSpec spec = MachineSpec::v100();
  BatchPolicyOptions free_opts;
  free_opts.max_bucket = 2;
  free_opts.latency_budget_seconds = 0;  // unconstrained probe
  const double b1 =
      score_batch_bucket(models[0], spec, 1, free_opts).predicted_batch_seconds;
  const double b2 =
      score_batch_bucket(models[0], spec, 2, free_opts).predicted_batch_seconds;
  ASSERT_GT(b2, b1);

  // Budget B with b2 <= B (old rule: bucket 2 feasible) but
  // delay + b2 > B >= delay + b1 (new rule: only bucket 1 fits).
  BatchPolicyOptions opts;
  opts.max_bucket = 2;
  opts.max_delay_seconds = b2;
  opts.latency_budget_seconds = b2 + (b1 + b2) / 2;
  const BucketChoice constrained = choose_batch_bucket(models[0], spec, opts);
  EXPECT_EQ(constrained.bucket, 1);
  for (const auto& s : constrained.scores) {
    if (s.bucket == 2) {
      EXPECT_FALSE(s.feasible);
    }
  }

  // Same budget with no formation delay: bucket 2 is back on the table.
  BatchPolicyOptions no_delay = opts;
  no_delay.max_delay_seconds = 0;
  for (const auto& s : choose_batch_bucket(models[0], spec, no_delay).scores)
    EXPECT_TRUE(s.feasible) << "bucket " << s.bucket;

  // Boundary: the budget exactly covers delay + batch -> feasible.
  BatchPolicyOptions exact = opts;
  exact.latency_budget_seconds = exact.max_delay_seconds + b2;
  const BucketChoice at_edge = choose_batch_bucket(models[0], spec, exact);
  for (const auto& s : at_edge.scores) {
    if (s.bucket == 2) {
      EXPECT_TRUE(s.feasible);
    }
  }
}

TEST(Serve, RejectsMalformedRequests) {
  auto models = tiny_models();
  ClusterServer server(models, tiny_options());
  EXPECT_THROW(server.submit({"no-such-model", Tensor4<float>(1, 1, 1, 1)}),
               Error);
  Tensor4<float> wrong(1, models[0].input_c() + 1, models[0].input_h(),
                       models[0].input_w());
  EXPECT_THROW(server.submit({models[0].name, wrong}), Error);
}

// ------------------------------------------------ shared tune cache ------

TEST(Serve, TunedPlanningSharesTheThreadSafeCache) {
  auto models = tiny_models();
  ClusterOptions opts = tiny_options();
  opts.plan_mode = PlanMode::kTuned;
  opts.tune_budget = 4;
  ClusterServer server(models, opts);
  // Warmup tunes through the one shared TuneCache; the second replica of
  // each (model, bucket) hits the entries the first replica autotuned.
  server.start();
  EXPECT_GT(server.device(0).engine().tune_cache().size(), 0u);

  const Tensor4<float> input = make_request_input(models[0], 11);
  InferResponse r = server.submit({models[0].name, input}).get();
  ASSERT_EQ(r.status, ServeStatus::kOk);
  EXPECT_TRUE(allclose(reference_run(models[0], input), r.output, 1e-3, 1e-3));
  EXPECT_EQ(server.stats().fleet.plan_misses_after_warm, 0u);
  server.stop();
}

// ------------------------------------------------- tenancy & admission ----

TEST(TenantTable, ResolvesNamesAndValidatesConfig) {
  const TenantTable table({TenantClass{"paid", 0.5, 3.0},
                           TenantClass{"free", 0, 1.0}});
  EXPECT_EQ(table.resolve("paid"), 0u);
  EXPECT_EQ(table.resolve("free"), 1u);
  EXPECT_EQ(table.resolve(""), 0u);         // default class
  EXPECT_EQ(table.resolve("unknown"), 0u);  // catch-all

  const auto now = ServeClock::now();
  // Budgeted class: effective deadline = min(explicit, now + budget).
  const auto eff = table.effective_deadline(0, now, ServeTimePoint::max());
  EXPECT_LT(eff, ServeTimePoint::max());
  const auto tight = now + std::chrono::milliseconds(1);
  EXPECT_EQ(table.effective_deadline(0, now, tight), tight);
  // Unbudgeted class: the explicit deadline is the only deadline.
  EXPECT_EQ(table.effective_deadline(1, now, ServeTimePoint::max()),
            ServeTimePoint::max());

  EXPECT_THROW(TenantTable({TenantClass{"a", 0, 0.0}}), Error);
  EXPECT_THROW(TenantTable({TenantClass{"a", 0, 1.0},
                            TenantClass{"a", 0, 1.0}}),
               Error);
  EXPECT_THROW(TenantTable({TenantClass{"a", 0, 1.0},
                            TenantClass{"", 0, 1.0}}),
               Error);
}

TEST(Serve, TenantClassesGetPerClassStatsAndQuotaStatus) {
  auto models = tiny_models();
  ClusterOptions opts = tiny_options();
  opts.max_queue = 8;
  opts.admission_congestion = 0.5;
  opts.classes = {TenantClass{"paid", 0, 3.0}, TenantClass{"free", 0, 1.0}};
  ClusterServer server(models, opts);

  // Not started: nothing drains, so admission outcomes are deterministic.
  const Tensor4<float> input = make_request_input(models[0], 7);
  std::vector<std::future<InferResponse>> free_futs;
  for (int i = 0; i < 5; ++i) {
    InferRequest r{models[0].name, input};
    r.tenant = "free";
    free_futs.push_back(server.submit(std::move(r)));
  }
  // Share of 2 but work-conserving up to the congestion threshold of 4;
  // the fifth free submit is the first over-quota one.
  EXPECT_EQ(free_futs[4].get().status, ServeStatus::kQuotaExceeded);
  std::vector<std::future<InferResponse>> paid_futs;
  for (int i = 0; i < 4; ++i) {
    InferRequest r{models[0].name, input};
    r.tenant = "paid";
    paid_futs.push_back(server.submit(std::move(r)));
  }

  server.start();  // drains the 4 free + 4 paid queued above
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(free_futs[i].get().status, ServeStatus::kOk);
    EXPECT_EQ(paid_futs[i].get().status, ServeStatus::kOk);
  }
  const StatsSnapshot s = server.stats().fleet;
  EXPECT_EQ(s.quota_rejected, 1u);
  ASSERT_TRUE(s.classes.count("paid"));
  ASSERT_TRUE(s.classes.count("free"));
  EXPECT_EQ(s.classes.at("paid").completed, 4u);
  EXPECT_EQ(s.classes.at("paid").quota_rejected, 0u);
  EXPECT_EQ(s.classes.at("free").completed, 4u);
  EXPECT_EQ(s.classes.at("free").quota_rejected, 1u);
  EXPECT_GT(s.classes.at("paid").latency_p99, 0.0);
  server.stop();
}

TEST(Serve, ClassLatencyBudgetExpiresUnservedRequests) {
  auto models = tiny_models();
  ClusterOptions opts = tiny_options();
  // A 1ms class budget on a not-yet-started server: the queued request's
  // effective deadline passes long before start() could serve it.
  opts.classes = {TenantClass{"default", 0, 1.0},
                  TenantClass{"impatient", 0.001, 1.0}};
  ClusterServer server(models, opts);
  const Tensor4<float> input = make_request_input(models[0], 9);

  InferRequest tight{models[0].name, input};
  tight.tenant = "impatient";
  auto f_tight = server.submit(std::move(tight));
  auto f_ok = server.submit({models[0].name, input});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  server.start();
  EXPECT_EQ(f_tight.get().status, ServeStatus::kDeadlineExceeded);
  EXPECT_EQ(f_ok.get().status, ServeStatus::kOk);
  const StatsSnapshot s = server.stats().fleet;
  EXPECT_EQ(s.expired, 1u);
  ASSERT_TRUE(s.classes.count("impatient"));
  EXPECT_EQ(s.classes.at("impatient").expired, 1u);
  server.stop();
}

}  // namespace
}  // namespace convbound
