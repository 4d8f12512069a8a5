#include "src/runner/thread_pool.h"

#include <algorithm>
#include <utility>

namespace specbench {

size_t ThreadCountForJobs(int jobs) {
  return jobs > 0 ? static_cast<size_t>(jobs) : std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) {
    threads = ThreadCountForJobs(0);
  }
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; i++) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    pending_++;
  }
  work_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_idle_.wait(lock, [this] { return pending_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutdown with a drained queue
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      pending_--;
      if (pending_ == 0) {
        all_idle_.notify_all();
      }
    }
  }
}

}  // namespace specbench
