#include "common/parallel.h"

#include <sched.h>

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/sync.h"

namespace qdb {

namespace {

std::atomic<ThreadEnvHook> g_thread_env_hook{nullptr};

/// CPUs in this process's affinity mask (what nproc counts).
int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0) {
    return CPU_COUNT(&set);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// One calling thread's workers.  Worker w serves slot w + 1.  A region
/// publishes its task under a new generation; the workers whose slot it
/// uses run it once each, and the caller waits until they have all finished.
class Team {
 public:
  Team() = default;
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  ~Team() {
    {
      const MutexLock lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  void run(int slots, parallel_detail::SlotTask task) {
    while (static_cast<int>(workers_.size()) < slots - 1) {
      const int slot = static_cast<int>(workers_.size()) + 1;
      workers_.emplace_back([this, slot] { work(slot); });
    }
    {
      const MutexLock lock(mu_);
      task_ = task;
      active_ = slots - 1;
      pending_ = slots - 1;
      ++generation_;
    }
    wake_.notify_all();
    parallel_detail::in_parallel_region() = true;
    task.run(task.ctx, 0);
    parallel_detail::in_parallel_region() = false;
    const MutexLock lock(mu_);
    done_.wait(mu_, [this]() QDB_REQUIRES(mu_) { return pending_ == 0; });
  }

 private:
  void work(int slot) {
    parallel_detail::in_parallel_region() = true;
    std::uint64_t seen = 0;
    for (;;) {
      parallel_detail::SlotTask task{};
      {
        const MutexLock lock(mu_);
        wake_.wait(mu_, [&]() QDB_REQUIRES(mu_) {
          return stop_ || (generation_ != seen && slot <= active_);
        });
        if (stop_) return;
        seen = generation_;
        task = task_;
      }
      task.run(task.ctx, slot);
      const MutexLock lock(mu_);
      if (--pending_ == 0) done_.notify_one();
    }
  }

  Mutex mu_;
  CondVar wake_;  ///< workers wait here for a new generation (or stop_)
  CondVar done_;  ///< the caller waits here for pending_ == 0
  parallel_detail::SlotTask task_ QDB_GUARDED_BY(mu_) = {};
  std::uint64_t generation_ QDB_GUARDED_BY(mu_) = 0;
  int active_ QDB_GUARDED_BY(mu_) = 0;   ///< slots 1..active_ take part
  int pending_ QDB_GUARDED_BY(mu_) = 0;  ///< workers still running task_
  bool stop_ QDB_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  ///< touched by the owning thread only
};

}  // namespace

int hardware_threads() {
  static const int threads = [] {
    const char* env = std::getenv("OMP_NUM_THREADS");
    const int parsed = parallel_detail::parse_thread_count(env);
    if (parsed > 0) return parsed;
    const int cpus = affinity_cpus();
    if (parsed < 0) {
      if (ThreadEnvHook hook = g_thread_env_hook.load(std::memory_order_acquire)) {
        hook(env, cpus);
      }
    }
    return cpus;
  }();
  return threads;
}

void set_thread_env_hook(ThreadEnvHook hook) {
  g_thread_env_hook.store(hook, std::memory_order_release);
}

namespace parallel_detail {

int parse_thread_count(const char* value) {
  if (value == nullptr || *value == '\0') return 0;
  const char* end = value + std::strlen(value);
  int n = 0;
  const auto [stop, ec] = std::from_chars(value, end, n);
  return ec == std::errc() && stop == end && n >= 1 && n <= kMaxThreads ? n : -1;
}

void run_slots(int slots, SlotTask task) noexcept {
  thread_local Team team;
  team.run(slots, task);
}

}  // namespace parallel_detail

}  // namespace qdb
