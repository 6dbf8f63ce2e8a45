// Deterministic parallel trial runner.
//
// The paper-reproduction benches run hundreds of independent simulation
// trials (per-seed scenario runs, OPT candidate sweeps, locale placements).
// Each trial is a pure function of its index — it derives its own Rng and
// shares no mutable state — so trials can run on any thread in any order
// as long as results are COLLECTED in index order.  That is the
// determinism contract of this module:
//
//   * callers fork one Rng (or compute one seed) per trial index BEFORE
//     dispatch, serially, so the random streams are independent of the
//     job count and of scheduling;
//   * ParallelMap stores each result at its index and returns the vector
//     in index order; all aggregation and printing happens serially on
//     the caller's thread afterwards;
//   * jobs <= 1 runs every trial inline on the calling thread, in index
//     order, with no pool at all — the serial reference path.
//
// Under that contract the output of any `--jobs N` is byte-identical to
// `--jobs 1`; only the wall clock changes.
//
// Three layers share the cores: `--jobs N` trials and `--shards N` city
// tiles each run on their own pool, and long Rayleigh fills
// (Rng::FillRayleigh) convert words on SharedThreadPool().  They nest by
// one rule: a Run that cannot own the pool's workers runs inline, in
// index order, on the calling thread.  That is the case
//
//   * when the calling thread is already inside a Run — a worker running
//     a task, or a caller draining its own batch — of any pool; and
//   * when another thread's batch is in flight on the same pool.
//
// A pool of size <= 1 is the plain serial loop and holds no core beyond
// its caller's, so its Run does not count as "inside".
//
// So a trial or tile that synthesizes a long trace converts it on its own
// thread (the outer layer already holds the cores; nothing
// oversubscribes), ParallelFor inside a task builds no pool, and a nested
// or concurrent Run can never clobber a live batch.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace whitefi {

/// A fixed-size worker pool dispatching indexed tasks.
///
/// Workers are started once and reused across Run() calls (trial loops
/// call Run per sweep); Run blocks until every index has been processed.
/// A pool of size <= 1 executes inline and starts no threads.  Run is
/// safe to call from any thread, including from inside its own tasks
/// (see the nesting rule above).
class ThreadPool {
 public:
  /// Starts `jobs - 1` workers (the calling thread participates in Run).
  explicit ThreadPool(int jobs);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Invokes fn(i) exactly once for every i in [0, n), distributing
  /// indices across the workers, and blocks until all are done.  fn(0)
  /// always runs on the calling thread.  The first exception
  /// thrown by any task is rethrown on the caller after the batch drains.
  /// With jobs <= 1, inside a task, or while another thread's batch is in
  /// flight, this is a plain serial loop on the calling thread.
  void Run(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// The configured parallelism (>= 1).
  int jobs() const { return jobs_; }

 private:
  void WorkerLoop();
  /// Runs claimed index `index`, records its error, and retires it.
  void RunIndex(std::size_t index);
  /// Pulls indices from the current batch until it is exhausted.
  void DrainBatch();

  int jobs_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable batch_ready_;
  std::condition_variable batch_done_;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t batch_size_ = 0;
  std::size_t next_index_ = 0;
  std::size_t in_flight_ = 0;    ///< Indices claimed but not yet finished.
  std::uint64_t generation_ = 0; ///< Bumped per batch to wake workers.
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

/// True on a thread that is inside a ThreadPool::Run of any pool: a worker
/// running a task, or a caller draining its own batch.  A Run from such a
/// thread runs inline.
bool InPoolTask();

/// The process-wide pool for data-parallel kernels (long Rayleigh fills),
/// HardwareJobs() wide.  Started on first call, so a process that never
/// asks for it starts no threads.
ThreadPool& SharedThreadPool();

/// One-shot convenience: runs fn(i) for i in [0, n) at the given job
/// count.  jobs <= 1, or a call from inside a pool task, is a serial loop
/// with no pool construction.
void ParallelFor(int jobs, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

/// Maps i -> fn(i) for i in [0, n) and returns the results in index
/// order regardless of job count or scheduling.
template <typename Fn>
auto ParallelMap(int jobs, std::size_t n, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  std::vector<decltype(fn(std::size_t{0}))> out(n);
  ParallelFor(jobs, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// CPUs the calling thread may run on (>= 1) — the natural
/// `--jobs $(nproc)` default.  On Linux this counts the thread's affinity
/// mask, so `taskset -c 0` yields 1; elsewhere, or if the mask cannot be
/// read, it is std::thread::hardware_concurrency().
int HardwareJobs();

}  // namespace whitefi
