// Fixed thread pool with deterministic, result-ordered batch execution.
//
// Design constraints (see docs/PERFORMANCE.md):
//   * No work stealing, no task graph — the only primitive is "run f(i) for
//     i in [0, n)". Workers pull indices from one atomic counter, so items
//     are claimed in index order and the dispatch overhead is one
//     fetch_add per item.
//   * Determinism: results are stored by index, never in completion order,
//     so run_batch() output is identical at any thread count — the property
//     the fuzz campaign and the sweep benches rely on for byte-exact
//     reproducibility. The callable must itself be pure per index (no
//     shared mutable state); every caller in this repo derives per-item RNG
//     streams from the item index.
//   * threads <= 1 executes inline on the caller's thread: no workers are
//     spawned and behaviour is bit-for-bit the serial loop.
//   * An exception thrown by f(i) is captured; the one from the LOWEST index
//     is rethrown on the calling thread after the batch drains (matching
//     what a serial loop would have thrown first). Remaining items are
//     skipped once an exception is seen.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <vector>

namespace ssq::exec {

class ThreadPool {
 public:
  /// `threads` = total workers used per batch, including the calling thread
  /// doing nothing; 0 and 1 both mean "inline, spawn nothing".
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

  /// Runs fn(i) for every i in [0, n), blocking until all complete. Must not
  /// be called re-entrantly from inside fn.
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// std::thread::hardware_concurrency with a sane floor of 1.
  [[nodiscard]] static unsigned hardware_threads() noexcept;

 private:
  struct Impl;
  Impl* impl_ = nullptr;  // null when threads_ <= 1 (inline mode)
  unsigned threads_ = 1;
};

/// Runs fn(i) for i in [0, n) on the pool and returns the results in index
/// order. R must be default-constructible and movable.
template <typename R, typename Fn>
std::vector<R> run_batch(ThreadPool& pool, std::size_t n, Fn&& fn) {
  std::vector<R> out(n);
  pool.run_indexed(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace ssq::exec
