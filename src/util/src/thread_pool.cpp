#include "convbound/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "convbound/util/check.hpp"

namespace convbound {

namespace {
// The pool whose worker_loop runs on this thread; null off every pool.
thread_local const ThreadPool* tls_owner = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t n) {
  if (n == 0) n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() const { return tls_owner == this; }

void ThreadPool::worker_loop() {
  tls_owner = this;
  for (;;) {
    std::function<void()> task;
    {
      UniqueLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.wait(lock);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  CB_CHECK(begin <= end);
  const std::size_t total = end - begin;
  if (total == 0) return;
  if (total == 1 || on_worker_thread()) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const std::size_t nthreads = num_threads();
  const std::size_t chunks = std::min(total, nthreads * 4);
  const std::size_t chunk = (total + chunks - 1) / chunks;

  std::vector<std::future<void>> futs;
  futs.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk;
    if (lo >= end) break;
    const std::size_t hi = std::min(end, lo + chunk);
    futs.push_back(submit([lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  // Drain every chunk before rethrowing: chunk tasks reference `fn`, so an
  // early rethrow while siblings are still queued or running would leave
  // them calling through a dangling reference.
  std::exception_ptr first_error;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace convbound
