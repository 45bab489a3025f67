#include "exec/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "sim/contracts.hpp"

namespace ssq::exec {

// Persistent workers parked on a condition variable. run_indexed() publishes
// a batch under the mutex, wakes everyone, then joins the batch as the
// (threads_)th worker so `threads` counts total active threads. Workers
// claim indices from a shared atomic; the last index consumer signals done.
struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::vector<std::thread> workers;

  // Batch state, guarded by mu except where atomic.
  std::uint64_t generation = 0;  // bumped per batch
  std::size_t batch_n = 0;
  const std::function<void(std::size_t)>* batch_fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};  // an item threw: skip the rest
  std::size_t active = 0;          // workers still inside the current batch
  bool shutdown = false;

  // First-thrown-by-index exception (serial-equivalent error reporting).
  std::exception_ptr error;
  std::size_t error_index = 0;

  void drain(std::uint64_t gen) {
    // Claim and run items until the batch is exhausted (or aborted).
    while (!abort.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch_n) break;
      try {
        (*batch_fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (error == nullptr || i < error_index) {
          error = std::current_exception();
          error_index = i;
        }
        abort.store(true, std::memory_order_relaxed);
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    (void)gen;
    if (--active == 0) done_cv.notify_all();
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      std::unique_lock<std::mutex> lock(mu);
      work_cv.wait(lock, [&] { return shutdown || generation != seen; });
      if (shutdown) return;
      seen = generation;
      lock.unlock();
      drain(seen);
    }
  }
};

ThreadPool::ThreadPool(unsigned threads) : threads_(threads == 0 ? 1 : threads) {
  if (threads_ <= 1) return;
  impl_ = new Impl;
  impl_->workers.reserve(threads_ - 1);
  for (unsigned t = 0; t + 1 < threads_; ++t) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  if (impl_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shutdown = true;
  }
  impl_->work_cv.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

void ThreadPool::run_indexed(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (impl_ == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::uint64_t gen;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    SSQ_EXPECT(impl_->active == 0 && "run_indexed is not re-entrant");
    impl_->batch_n = n;
    impl_->batch_fn = &fn;
    impl_->next.store(0, std::memory_order_relaxed);
    impl_->abort.store(false, std::memory_order_relaxed);
    impl_->error = nullptr;
    impl_->error_index = 0;
    impl_->active = threads_;  // workers + this thread
    gen = ++impl_->generation;
  }
  impl_->work_cv.notify_all();
  impl_->drain(gen);  // participate as the last worker
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->done_cv.wait(lock, [&] { return impl_->active == 0; });
  impl_->batch_fn = nullptr;
  if (impl_->error != nullptr) {
    std::exception_ptr e = impl_->error;
    impl_->error = nullptr;
    lock.unlock();
    std::rethrow_exception(e);
  }
}

unsigned ThreadPool::hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace ssq::exec
