#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "util/check.hpp"
#include "util/env.hpp"

namespace ff::util {

namespace {
// The pool whose ParallelFor the current thread is executing a chunk of, if
// any. Guards against nested dispatch onto an already-saturated pool.
thread_local const ThreadPool* tl_active_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::thread::hardware_concurrency();
    if (n_threads == 0) n_threads = 2;
  }
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::SubmitCopies(std::size_t copies,
                              const std::function<void()>& task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < copies; ++i) tasks_.push(task);
  }
  if (copies >= workers_.size()) {
    cv_.notify_all();
  } else {
    for (std::size_t i = 0; i < copies; ++i) cv_.notify_one();
  }
}

namespace {

// One ParallelForRange call, shared by its caller and the helper tasks it
// queued. Ref-counted: the caller returns as soon as every chunk is done, so
// a helper that is dequeued late (its worker was busy elsewhere) finds no
// chunk left and touches only this state, never `fn` or the caller's stack.
struct RangeJob {
  const ThreadPool* pool = nullptr;
  const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::size_t chunk = 0;
  std::size_t n_chunks = 0;
  std::atomic<std::size_t> next{0};  // next unclaimed chunk
  std::atomic<std::size_t> done{0};  // chunks finished
  std::mutex mu;                     // guards error; pairs with done_cv
  std::condition_variable done_cv;
  std::exception_ptr error;

  // Claims and runs chunks until none is left.
  void Drain() {
    for (;;) {
      const std::size_t c = next.fetch_add(1);
      if (c >= n_chunks) return;
      const std::size_t begin = c * chunk;
      const ThreadPool* prev = tl_active_pool;
      tl_active_pool = pool;
      try {
        (*fn)(begin, std::min(n, begin + chunk));
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
      tl_active_pool = prev;
      if (done.fetch_add(1) + 1 == n_chunks) {
        // Notify under the mutex so the caller cannot test `done`, miss
        // this increment and then sleep through the notification.
        std::lock_guard<std::mutex> lock(mu);
        done_cv.notify_all();
      }
    }
  }
};

// Chunks per participating thread: enough that a descheduled worker holds
// up a small slice of the range rather than a whole 1/threads of it.
constexpr std::size_t kChunksPerThread = 4;

}  // namespace

void ThreadPool::ParallelForRange(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  // Nested call from inside one of this pool's own chunks: every worker may
  // already be busy on the outer dispatch, so queued sub-tasks could never
  // start. Run inline instead (as a single index always is).
  if (tl_active_pool == this || n == 1) {
    fn(0, n);
    return;
  }
  auto job = std::make_shared<RangeJob>();
  job->pool = this;
  job->fn = &fn;
  job->n = n;
  job->chunk = (n + kChunksPerThread * (workers_.size() + 1) - 1) /
               (kChunksPerThread * (workers_.size() + 1));
  // Ceil rounding can leave trailing chunks empty; count only live ones.
  job->n_chunks = (n + job->chunk - 1) / job->chunk;
  SubmitCopies(std::min(workers_.size(), job->n_chunks - 1),
               [job] { job->Drain(); });
  job->Drain();

  std::unique_lock<std::mutex> lock(job->mu);
  job->done_cv.wait(lock, [&] { return job->done.load() == job->n_chunks; });
  if (job->error) std::rethrow_exception(job->error);
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  ParallelForRange(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

ThreadPool& GlobalPool() {
  static ThreadPool pool(static_cast<std::size_t>(EnvInt("FF_NUM_THREADS", 0)));
  return pool;
}

}  // namespace ff::util
