#include "convbound/cluster/cluster.hpp"

#include <utility>

#include "convbound/obs/trace.hpp"
#include "convbound/util/check.hpp"
#include "convbound/util/thread_pool.hpp"

namespace convbound {

ClusterServer::ClusterServer(std::vector<ServedModel> models,
                             ClusterOptions opts)
    : opts_(std::move(opts)),
      models_(index_models(std::move(models))),
      tenants_(opts_.classes),
      stats_(opts_.shards),
      queue_(opts_.max_queue, opts_.shards) {
  CB_CHECK_MSG(!opts_.devices.empty(), "cluster needs at least one device");
  queue_.set_tenancy(&tenants_, opts_.admission_congestion);
  // The fleet queue answers expired requests itself (promptly, freeing
  // capacity); they never reach a device, so the front door counts them —
  // on the exec stripe, keeping expiry off the submit stripes' locks.
  queue_.set_on_expired([this](std::size_t cls, std::size_t n) {
    stats_.exec_stripe().record_expired(
        n, cls < tenants_.size() ? tenants_.cls(cls).name : std::string());
  });
  EngineOptions eopts = opts_.engine_options();
  for (std::size_t i = 0; i < opts_.devices.size(); ++i) {
    DeviceConfig cfg = opts_.devices[i];
    if (cfg.name.empty())
      cfg.name = "d" + std::to_string(i) + ":" + cfg.spec.name;
    // Each device engine stamps its fleet index on trace events, so a
    // trace separates the devices into their own process rows.
    eopts.device_ordinal = static_cast<int>(i);
    devices_.push_back(
        std::make_unique<ClusterDevice>(models_, std::move(cfg), eopts));
  }
}

ClusterServer::~ClusterServer() { stop(); }

void ClusterServer::start() {
  CB_CHECK_MSG(!stopped_.load(std::memory_order_seq_cst),
               "cluster cannot restart after stop()");
  CB_CHECK_MSG(!started_.load(std::memory_order_seq_cst),
               "cluster already started");
  // Devices warm serially here but each warm() parallelises internally
  // across the global pool, so fleet startup still scales with cores.
  for (auto& d : devices_) d->start();

  // The Router's cost table comes from the plan layer at warm time: for
  // every (device, model), the predicted whole-batch time of the bucket
  // choose_batch_bucket picked against that device's spec — SimGpu dry-run
  // predictions under the default kMeasured planning, pure Eq 20/22 +
  // roofline under kAnalytic. Routing itself never measures anything; it
  // reads these per-device predictions.
  std::vector<Router::DeviceEntry> entries;
  for (auto& d : devices_) {
    Router::DeviceEntry e;
    e.name = d->name();
    e.max_pending_groups = d->config().effective_pending();
    for (const auto& [name, model] : models_) {
      Router::ModelCost cost;
      cost.bucket = d->engine().bucket_of(name);
      cost.batch_seconds = d->engine().predicted_batch_seconds(name);
      e.costs.emplace(name, cost);
    }
    entries.push_back(std::move(e));
  }
  router_ = std::make_unique<Router>(opts_.policy, std::move(entries));

  scheduler_ = std::make_unique<BatchScheduler>(
      queue_, opts_.max_delay,
      [this](const std::string& m) { return router_->reserve(m); },
      [this](std::vector<PendingRequest> group, const std::string& m,
             const Placement& p) {
        // device < 0: the router bailed out of a fully-dead closing fleet
        // (no reservation held). The group was collected off the closed
        // queue, so its requests resolve kShutdown via requeue_group.
        if (p.device < 0) {
          requeue_group(std::move(group));
          return;
        }
        const bool accepted = devices_[static_cast<std::size_t>(p.device)]
                                  ->enqueue(std::move(group), m,
                                            [this, d = p.device, m] {
                                              router_->complete(d, m);
                                            });
        if (!accepted) {
          // The device died between reserve() and enqueue(). enqueue left
          // the group with us; release the reservation and send every
          // request back through the front queue (zero loss).
          router_->complete(p.device, m);
          requeued_requests_.fetch_add(requeue_group(std::move(group)),
                                       std::memory_order_relaxed);
        }
      });
  stats_.mark_start();
  started_.store(true, std::memory_order_seq_cst);
  scheduler_->start();
}

void ClusterServer::stop() {
  if (stopped_.exchange(true, std::memory_order_seq_cst)) return;
  queue_.close();
  // Closing the router lets a reserve() blocked on a fully-dead fleet
  // return (device = -1) instead of deadlocking the scheduler join below;
  // placement on live devices is unaffected, so the drain still serves.
  if (router_ != nullptr) router_->close();
  // The scheduler drains the closed queue (placing every remaining group),
  // then exits; devices must stay alive until it joins because reserve()
  // unblocks only through their completions.
  if (scheduler_ != nullptr) scheduler_->join();
  for (auto& d : devices_) d->drain();
  // Only a never-started cluster still holds queued requests here.
  for (auto& p : queue_.drain()) {
    InferResponse r;
    r.status = ServeStatus::kShutdown;
    p.promise.set_value(std::move(r));
  }
}

std::future<InferResponse> ClusterServer::submit(InferRequest request) {
  validate_request(models_, request);
  PendingRequest p;
  p.class_index = tenants_.resolve(request.tenant);
  p.tenant_class = tenants_.cls(p.class_index).name;
  p.request = std::move(request);
  p.enqueued = ServeClock::now();
  p.class_deadline = tenants_.effective_deadline(p.class_index, p.enqueued,
                                                 ServeTimePoint::max());
  const std::string cls = p.tenant_class;
  std::future<InferResponse> fut = p.promise.get_future();
  // Correlation id only when tracing: the fetch_add on a shared counter is
  // cheap but not free, and the submit hot path is gated at zero overhead
  // with tracing off (bench/trace_overhead.cpp).
  const bool tracing = obs::on();
  if (tracing) p.trace_id = ObsRegistry::next_request_id();
  const std::uint64_t trace_id = p.trace_id;
  const ServeTimePoint enqueued = p.enqueued;

  // Stats recording goes to this request's shard stripe, so producers
  // hashed to different shards never contend on a stats lock either.
  ServerStats& stripe =
      stats_.stripe(queue_.shard_of(p.request.model, p.class_index));

  // Every refusal takes the same steps: count it on the stripe, emit a
  // kShed instant carrying the status, resolve the promise. `p` is intact
  // here — push() leaves it untouched on a non-kOk verdict.
  const auto shed = [&](ServeStatus status) {
    stripe.record_rejected(status, cls);
    obs::instant(TraceStage::kShed, enqueued, trace_id, 0, -1,
                 static_cast<double>(status));
    InferResponse r;
    r.status = status;
    p.promise.set_value(std::move(r));
    return std::move(fut);
  };

  if (stopped_.load(std::memory_order_seq_cst))
    return shed(ServeStatus::kShutdown);
  // The queue's own closed flag (not a re-read of stopped_) decides
  // shutdown races, so a submit that loses to a concurrent stop() resolves
  // kShutdown instead of hanging.
  std::size_t depth_after = 0;
  switch (queue_.push(std::move(p), &depth_after)) {
    case ShardedRequestQueue::Admit::kOk:
      // depth_after came out of the push itself, so recording it never
      // re-reads the queue.
      stripe.record_submitted(depth_after, cls);
      obs::instant(TraceStage::kAdmit, enqueued, trace_id, 0, -1,
                   static_cast<double>(depth_after));
      return fut;
    case ShardedRequestQueue::Admit::kFull:
      return shed(ServeStatus::kRejected);
    case ShardedRequestQueue::Admit::kQuota:
      return shed(ServeStatus::kQuotaExceeded);
    case ShardedRequestQueue::Admit::kClosed:
      return shed(ServeStatus::kShutdown);
  }
  return fut;  // unreachable
}

std::size_t ClusterServer::requeue_group(std::vector<PendingRequest> group) {
  std::size_t requeued = 0;
  for (auto& p : group) {
    if (queue_.readmit(std::move(p))) {
      ++requeued;
    } else {
      // Queue closed: the fleet is shutting down; resolve instead of
      // re-queueing into a queue nobody will drain for serving.
      InferResponse r;
      r.status = ServeStatus::kShutdown;
      p.promise.set_value(std::move(r));
    }
  }
  return requeued;
}

std::size_t ClusterServer::fail_device(std::size_t i) {
  CB_CHECK_MSG(started_.load(std::memory_order_seq_cst),
               "fail_device() before start()");
  CB_CHECK_MSG(i < devices_.size(), "fail_device() for unknown device " << i);
  // Order matters: mark the device dead in the router first so no *new*
  // placement lands on it, then strand whatever its queue already held.
  // A placement that raced past set_alive is bounced by enqueue() and
  // re-queued by the dispatch path above — either way, zero loss.
  router_->set_alive(static_cast<int>(i), false);
  std::vector<ClusterDevice::StrandedGroup> stranded = devices_[i]->fail();
  device_failures_.fetch_add(1, std::memory_order_relaxed);
  std::size_t requeued = 0;
  for (auto& s : stranded) {
    // The reservation pinned by the stranded group returns first so the
    // surviving devices' capacity accounting is exact before the requests
    // re-enter the queue.
    if (s.on_done) s.on_done();
    requeued += requeue_group(std::move(s.group));
  }
  requeued_requests_.fetch_add(requeued, std::memory_order_relaxed);
  return requeued;
}

void ClusterServer::revive_device(std::size_t i, ReviveMode mode) {
  CB_CHECK_MSG(started_.load(std::memory_order_seq_cst),
               "revive_device() before start()");
  CB_CHECK_MSG(i < devices_.size(),
               "revive_device() for unknown device " << i);
  devices_[i]->revive(mode);
  // Hot-join: refresh the router's cost row from the revived engine's
  // warm-time predictions *before* re-admitting the device, so the first
  // placement after the join already sees the rebuilt buckets. The rest of
  // the fleet keeps placing on its own rows throughout.
  std::map<std::string, Router::ModelCost> costs;
  for (const auto& [name, model] : models_) {
    Router::ModelCost cost;
    cost.bucket = devices_[i]->engine().bucket_of(name);
    cost.batch_seconds = devices_[i]->engine().predicted_batch_seconds(name);
    costs.emplace(name, cost);
  }
  router_->update_costs(static_cast<int>(i), std::move(costs));
  router_->set_alive(static_cast<int>(i), true);
  device_revives_.fetch_add(1, std::memory_order_relaxed);
}

ClusterSnapshot ClusterServer::stats() const {
  ClusterSnapshot snap;
  Router::Snapshot route;
  // started_ (atomic) is flipped after router_ is assigned, so gating on it
  // keeps a stats() poll racing start() off the half-built pointer.
  if (started_.load(std::memory_order_seq_cst)) route = router_->snapshot();
  snap.stolen_groups = route.stolen;
  snap.device_failures = device_failures_.load(std::memory_order_relaxed);
  snap.device_revives = device_revives_.load(std::memory_order_relaxed);
  snap.requeued_requests = requeued_requests_.load(std::memory_order_relaxed);

  std::vector<StatsSnapshot> parts;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    DeviceSnapshot d;
    d.name = devices_[i]->name();
    d.spec_name = devices_[i]->config().spec.name;
    d.stats = devices_[i]->stats();
    d.alive = i < route.alive.size() ? route.alive[i] : devices_[i]->alive();
    if (i < route.placements.size()) d.placements = route.placements[i];
    parts.push_back(d.stats);
    snap.devices.push_back(std::move(d));
  }

  snap.fleet = merge_snapshots(parts);
  // Front-door truth overrides the merge: devices never see submissions or
  // rejections, and the fleet clock starts at cluster start(). Requests the
  // fleet queue expired before placement are the front door's too — they
  // add to the devices' collect-time expirations, as do the front door's
  // per-class slices (submits, rejections, queue-side expiry).
  // StripedServerStats::snapshot() folds every per-shard stripe before this
  // override — reading a single stripe here would report only the slice of
  // submissions that hashed to that shard (the skewed-stripe regression
  // test in tests/stats_test.cpp pins the fold).
  const StatsSnapshot front = stats_.snapshot();
  snap.fleet.submitted = front.submitted;
  snap.fleet.rejected = front.rejected;
  snap.fleet.quota_rejected = front.quota_rejected;
  snap.fleet.shutdown_rejected = front.shutdown_rejected;
  snap.fleet.expired += front.expired;
  for (const auto& [name, part] : front.classes) {
    ClassSnapshot& c = snap.fleet.classes[name];
    c.submitted = part.submitted;
    c.rejected = part.rejected;
    c.quota_rejected = part.quota_rejected;
    c.shutdown_rejected = part.shutdown_rejected;
    c.expired += part.expired;
  }
  snap.fleet.wall_seconds = front.wall_seconds;
  snap.fleet.throughput_rps =
      front.wall_seconds > 0
          ? static_cast<double>(snap.fleet.completed) / front.wall_seconds
          : 0;
  // Shard fields describe the fleet's shared front-door queue, not any
  // device queue (devices drain scheduler groups, not shards).
  snap.fleet.queue_depth = queue_.depth();
  snap.fleet.shard_depths.resize(queue_.num_shards());
  snap.fleet.shard_max_depths.resize(queue_.num_shards());
  for (std::size_t i = 0; i < queue_.num_shards(); ++i) {
    snap.fleet.shard_depths[i] = queue_.shard_depth(i);
    snap.fleet.shard_max_depths[i] = queue_.shard_max_depth(i);
  }
  snap.fleet.shard_imbalance = shard_imbalance_ratio(snap.fleet.shard_max_depths);
  snap.fleet.max_queue_depth = front.max_queue_depth;
  return snap;
}

const Router& ClusterServer::router() const {
  CB_CHECK_MSG(router_ != nullptr, "router exists only after start()");
  return *router_;
}

const ServedModel& ClusterServer::model(const std::string& name) const {
  const auto it = models_.find(name);
  CB_CHECK_MSG(it != models_.end(), "unknown served model '" << name << "'");
  return it->second;
}

}  // namespace convbound
