// Fixed-size worker pool over a FIFO work queue.
//
// The sweep runner executes independent experiment cells concurrently; the
// pool is deliberately minimal — submit closures, wait for the queue to
// drain. Determinism is the *caller's* job: every task must write only to
// its own pre-allocated slot and derive all randomness from its own seed, so
// results cannot depend on which worker ran a task or in what order.
#ifndef SPECTREBENCH_SRC_RUNNER_THREAD_POOL_H_
#define SPECTREBENCH_SRC_RUNNER_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace specbench {

// The one meaning of every `jobs` option: `jobs` worker threads when
// positive, one per hardware thread (at least 1) when <= 0.
size_t ThreadCountForJobs(int jobs);

class ThreadPool {
 public:
  // Spawns `threads` workers; 0 means one per hardware thread
  // (ThreadCountForJobs).
  explicit ThreadPool(size_t threads = 0);
  // Completes all submitted work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Must not be called after the destructor has begun.
  void Submit(std::function<void()> task);

  // Blocks until every task submitted so far has finished running.
  void Wait();

  size_t thread_count() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_ready_;  // signals workers
  std::condition_variable all_idle_;    // signals Wait()
  size_t pending_ = 0;                  // queued + currently running tasks
  bool shutdown_ = false;
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_RUNNER_THREAD_POOL_H_
