#include "util/parallel.h"

#ifdef __linux__
#include <sched.h>
#endif

namespace whitefi {
namespace {

// True while this thread is inside a Run of a pool with workers: a worker
// thread always, a caller while it drains its own batch or runs one
// inline.  Drives the nesting rule in parallel.h.
thread_local bool t_in_pool_task = false;

// Marks the calling thread as inside a Run for one scope and remembers
// whether it already was.
class InTaskScope {
 public:
  InTaskScope() : nested_(t_in_pool_task) { t_in_pool_task = true; }
  ~InTaskScope() { t_in_pool_task = nested_; }
  InTaskScope(const InTaskScope&) = delete;
  InTaskScope& operator=(const InTaskScope&) = delete;

  bool nested() const { return nested_; }

 private:
  bool nested_;
};

}  // namespace

ThreadPool::ThreadPool(int jobs) : jobs_(jobs < 1 ? 1 : jobs) {
  workers_.reserve(static_cast<std::size_t>(jobs_ - 1));
  for (int i = 1; i < jobs_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  batch_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Run(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (jobs_ <= 1) {
    // Serial reference path: inline, index order, no synchronization.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const InTaskScope scope;
  bool owned = false;
  if (n > 1 && !scope.nested()) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (task_ == nullptr) {
      // The caller keeps index 0 for itself.
      owned = true;
      task_ = &fn;
      batch_size_ = n;
      next_index_ = 1;
      in_flight_ = 1;
      first_error_ = nullptr;
      ++generation_;
    }
  }
  if (!owned) {
    // Nested in a task, or another thread's batch is in flight: the
    // serial loop, on this thread.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  batch_ready_.notify_all();
  // The caller works too, then waits for stragglers.
  RunIndex(0);
  DrainBatch();
  std::unique_lock<std::mutex> lock(mutex_);
  batch_done_.wait(lock, [this] {
    return next_index_ >= batch_size_ && in_flight_ == 0;
  });
  task_ = nullptr;
  if (first_error_ != nullptr) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void ThreadPool::RunIndex(std::size_t index) {
  // task_ stays put while this index is in flight: the batch cannot
  // complete before it retires.
  try {
    (*task_)(index);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (first_error_ == nullptr) first_error_ = std::current_exception();
  }
  bool last = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --in_flight_;
    last = next_index_ >= batch_size_ && in_flight_ == 0;
  }
  if (last) batch_done_.notify_all();
}

void ThreadPool::DrainBatch() {
  for (;;) {
    std::size_t index;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (task_ == nullptr || next_index_ >= batch_size_) return;
      index = next_index_++;
      ++in_flight_;
    }
    RunIndex(index);
  }
}

void ThreadPool::WorkerLoop() {
  t_in_pool_task = true;
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      batch_ready_.wait(lock, [&] {
        return stopping_ || (task_ != nullptr && generation_ != seen_generation);
      });
      if (stopping_) return;
      seen_generation = generation_;
    }
    DrainBatch();
  }
}

bool InPoolTask() { return t_in_pool_task; }

ThreadPool& SharedThreadPool() {
  static ThreadPool pool(HardwareJobs());
  return pool;
}

void ParallelFor(int jobs, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  if (jobs <= 1 || n <= 1 || InPoolTask()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(jobs);
  pool.Run(n, fn);
}

int HardwareJobs() {
#ifdef __linux__
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int cpus = CPU_COUNT(&mask);
    if (cpus > 0) return cpus;
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace whitefi
