// Dynamic micro-batching inference server in ~70 lines: three client
// threads fire requests at two (scaled-down) zoo models; the server — the
// cluster front door with a fleet of one device — groups them into
// bound-guided micro-batches over warm, pre-planned sessions.
//
//   ./serve_demo
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "convbound/convbound.hpp"

int main() {
  using namespace convbound;

  // Scaled-down pipelines (first 3 conv layers, channels <= 16, images
  // <= 28) so the demo runs in seconds on a laptop.
  ServedModelOptions scale;
  scale.max_layers = 3;
  scale.channel_cap = 16;
  scale.spatial_cap = 28;
  std::vector<ServedModel> models;
  models.push_back(make_served_model("squeezenet", squeezenet_v10(), scale));
  models.push_back(make_served_model("resnet-18", resnet18(), scale));

  // One V100 with two executor workers. One pending group per worker
  // makes the scheduler form each group only once a worker is free.
  DeviceConfig device;
  device.spec = MachineSpec::v100();
  device.workers = 2;
  device.replicas = 1;
  device.max_pending_groups = device.workers;
  ClusterOptions opts;
  opts.devices.push_back(device);
  opts.max_delay = std::chrono::microseconds(1000);
  ClusterServer server(models, opts);
  server.start();  // plans + warms every (model, bucket) session

  for (const auto& m : models) {
    const BucketChoice& c = server.device(0).engine().bucket_choice(m.name);
    std::printf("%s: bound-guided batch bucket = %lld\n", m.name.c_str(),
                static_cast<long long>(c.bucket));
    for (const auto& s : c.scores)
      std::printf("  bucket %-2lld  pred %7.2f us/request  batch %7.2f us%s\n",
                  static_cast<long long>(s.bucket),
                  s.predicted_seconds_per_request * 1e6,
                  s.predicted_batch_seconds * 1e6,
                  s.chosen ? "   <- chosen" : "");
  }

  // Failures are counted, not thrown: an exception escaping a client
  // thread would std::terminate the process.
  constexpr int kClients = 3, kPerClient = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const ServedModel& m = models[(c + i) % models.size()];
        const Tensor4<float> input =
            make_request_input(m, 100u * c + i);
        const InferResponse r = server.submit({m.name, input}).get();
        // Responses are batch-transparent: identical to an unbatched
        // single-threaded reference run.
        if (r.status != ServeStatus::kOk ||
            !allclose(reference_run(m, input), r.output, 1e-3, 1e-3))
          ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  CB_CHECK_MSG(failures.load() == 0,
               failures.load() << " requests failed or mismatched");

  const StatsSnapshot s = server.stats().fleet;
  std::printf("\nserved %llu requests in %llu micro-batches "
              "(mean batch %.2f)\n",
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.batches), s.mean_batch_size);
  std::printf("latency p50/p95/p99: %.2f / %.2f / %.2f ms (wall)\n",
              s.latency_p50 * 1e3, s.latency_p95 * 1e3, s.latency_p99 * 1e3);
  std::printf("modelled accelerator throughput: %.0f requests/s\n",
              s.modelled_rps);
  std::printf("plan-cache misses after warmup: %llu (plans stay warm)\n",
              static_cast<unsigned long long>(s.plan_misses_after_warm));
  server.stop();
  return 0;
}
