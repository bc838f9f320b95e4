// Dynamic micro-batching scheduler.
//
// One thread watches the queue's most urgent request (via the sharded
// facade's cross-shard head scan — approximate-global-EDF, exact within a
// shard), reserves a placement for it, then collects up to the placement's
// bucket of same-model requests, waiting at most `max_delay` past the
// oldest arrival before dispatching a partial group — the classic
// max-batch/max-delay policy. Head-of-line
// batching is deliberate: the window is bounded by max_delay, after which
// the next model's group is formed immediately.
//
// Groups are formed as late as possible: `reserve` blocks until an executor
// can accept the group *before* the group is collected, so under saturation
// the backlog pools in the request queue (where it keeps batching up and
// counts toward backpressure) instead of fragmenting into partial groups
// queued behind busy workers.
//
// Placement is how the scheduler stays fleet-agnostic: the cluster
// layer's Router picks the device with the best predicted completion
// (blocking until one has a free pending slot) and returns *that device's*
// bucket (buckets are per-MachineSpec). A single-device server is a fleet
// of one whose pending cap equals its worker count. The scheduler only
// promises to hand the reserved placement back unchanged in `dispatch`.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "convbound/serve/sharded_queue.hpp"

namespace convbound {

/// Where (and at what max group size) a group will execute. `device` is
/// the reserver's fleet index (-1: no device could take the group).
struct Placement {
  std::int64_t bucket = 1;
  int device = 0;
  /// The reserver's predicted modelled execution time for a full bucket on
  /// the chosen device (the Router's cost-table entry, read from the warm
  /// plans). Recorded on the placement trace event so modelled vs.
  /// wall is inspectable per batch; 0 when the reserver has no prediction.
  double predicted_batch_seconds = 0;
};

class BatchScheduler {
 public:
  /// Blocks until an executor can take a group of `model`, and returns the
  /// placement (max group size + device token). Called on the scheduler
  /// thread before each group is collected.
  using Reserve = std::function<Placement(const std::string&)>;
  /// Receives each non-empty group with its reserved placement (called on
  /// the scheduler thread — hand off to workers quickly). The dispatcher
  /// owns the reservation and must release it even for empty groups.
  using Dispatch = std::function<void(std::vector<PendingRequest>,
                                      const std::string&, const Placement&)>;

  BatchScheduler(ShardedRequestQueue& queue,
                 std::chrono::microseconds max_delay, Reserve reserve,
                 Dispatch dispatch)
      : queue_(queue),
        max_delay_(max_delay),
        reserve_(std::move(reserve)),
        dispatch_(std::move(dispatch)) {}
  ~BatchScheduler() { join(); }

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  void start();
  /// Returns once the queue is closed and drained. Close the queue first.
  void join();

 private:
  void loop();

  ShardedRequestQueue& queue_;
  std::chrono::microseconds max_delay_;
  Reserve reserve_;
  Dispatch dispatch_;
  std::thread thread_;
};

}  // namespace convbound
