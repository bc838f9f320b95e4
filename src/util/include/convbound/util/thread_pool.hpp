// Fixed-size work-queue thread pool.
//
// In the GPU simulator one pool worker plays the role of one streaming
// multiprocessor: thread blocks are submitted as tasks and drained by
// `num_threads()` workers, mirroring how a GPU schedules blocks onto SMs.
//
// Nested work: a worker that blocks on work queued to its own pool can wait
// forever, because once every worker waits no thread is left to run the
// queue (tuned serving warmup is this shape: sessions warm in a
// parallel_for, and each one's batched measurement calls parallel_for
// again). So work that a worker hands to its own pool and then waits for
// runs inline on that worker: parallel_for does, and so does a striped
// SimGpu::launch. The outermost parallel_for still spreads over every
// worker. submit() never runs inline; a worker may submit to its own pool,
// but must not block on the future.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "convbound/util/mutex.hpp"
#include "convbound/util/thread_annotations.hpp"

namespace convbound {

class ThreadPool {
 public:
  /// Creates `n` workers; n == 0 means hardware_concurrency().
  explicit ThreadPool(std::size_t n = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Enqueue a task; the returned future rethrows task exceptions.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      MutexLock lock(mu_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs fn(i) for i in [begin, end) across the pool and blocks until done.
  /// Work is chunked to amortise queueing overhead. Called on a worker of
  /// this pool, it runs fn(begin..end-1) inline in index order instead (see
  /// the file comment); an exception then stops the loop at once.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

  /// Process-wide shared pool (sized to hardware concurrency).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_;
  std::queue<std::function<void()>> queue_ CB_GUARDED_BY(mu_);
  bool stop_ CB_GUARDED_BY(mu_) = false;
};

}  // namespace convbound
