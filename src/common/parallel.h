// Parallel loop helpers over one runtime: a persistent team of plain
// std::thread workers per calling thread.
//
// All fan-out in QDockBank (shot batches, docking runs, dataset entries,
// enumeration subtrees, screen grids) goes through these wrappers.  A region
// started by thread T runs on T itself (slot 0) and on up to
// min(threads, tasks) - 1 workers of T's own team.  The team is made on T's
// first region, grows to the largest region T asks for, blocks its idle
// workers on a condition variable and is joined when T exits.  One team per
// calling thread lets concurrent callers (the server's request workers) each
// keep their own workers instead of queueing for a shared pool.
//
// Contract:
//   - body(i) must be safe to run concurrently for distinct indices and must
//     not throw: a throw on the pooled path ends the process.
//   - Regions nest one level: a region started inside another (on a worker,
//     or in a caller's own slot) runs serially on the thread that starts it.
//   - The thread count is OMP_NUM_THREADS when it is a whole number in
//     [1, 1024], else the CPU count of the process's affinity mask.
//
// Determinism: the for-loops touch disjoint state per index, so their results
// do not depend on the thread count.  parallel_reduce gives slot s the s-th
// contiguous chunk of [0, n) and sums the partials in slot order, so its
// result depends on the thread count only, never on timing.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace qdb {

/// The thread count a region uses by default (see the header comment).
int hardware_threads();

/// Receives an OMP_NUM_THREADS value that was rejected and the thread count
/// used instead, once per process.  common/ cannot log; obs/log.cpp installs
/// a hook that reports it as one obs::log_warn.  nullptr clears it.
using ThreadEnvHook = void (*)(std::string_view value, int threads);
void set_thread_env_hook(ThreadEnvHook hook);

namespace parallel_detail {

inline constexpr int kMaxThreads = 1024;

/// An OMP_NUM_THREADS value as a thread count: the count when `value` is a
/// whole decimal number in [1, kMaxThreads], 0 when it is null or empty
/// (unset), -1 for anything else.
int parse_thread_count(const char* value);

/// True on every pool worker, and on a caller while it runs its own slot.
inline bool& in_parallel_region() {
  thread_local bool flag = false;
  return flag;
}

/// How many threads (the caller included) a region over `tasks` units uses;
/// 1 means run it serially on the caller.  threads <= 0 is the default.
inline int region_slots(std::int64_t tasks, int threads) {
  if (tasks <= 1 || in_parallel_region()) return 1;
  if (threads <= 0) threads = hardware_threads();
  return static_cast<int>(std::min<std::int64_t>(threads, tasks));
}

/// A task run once on each slot of a region.
struct SlotTask {
  void* ctx;
  void (*run)(void* ctx, int slot);
};

/// Run `task` on slots 0..slots-1 (slot 0 on the caller, the rest on the
/// caller's team) and return once every slot has finished.
void run_slots(int slots, SlotTask task) noexcept;

template <typename F>
void run_slots(int slots, F& f) {
  run_slots(slots, SlotTask{&f, [](void* ctx, int slot) { (*static_cast<F*>(ctx))(slot); }});
}

/// Slot `slot`'s contiguous share of [0, n) over `slots` slots; the first
/// n % slots slots take one index more.
inline std::pair<std::int64_t, std::int64_t> static_chunk(std::int64_t n, int slots,
                                                          int slot) {
  const std::int64_t q = n / slots;
  const std::int64_t r = n % slots;
  const std::int64_t begin = slot * q + std::min<std::int64_t>(slot, r);
  return {begin, begin + q + (slot < r ? 1 : 0)};
}

/// Hands indices of [0, n) out one at a time to whichever slot asks first.
struct DynamicIndices {
  std::int64_t n;
  std::atomic<std::int64_t> next{0};

  template <typename Body>
  void drain(Body& body) {
    for (std::int64_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
    }
  }
};

/// The one dispatch routine: body(i) for i in [0, n), indices handed out
/// one at a time (dynamic) or as one contiguous chunk per slot (static).
template <typename Body>
void loop(std::int64_t n, int threads, bool dynamic, Body& body) {
  const int slots = region_slots(n, threads);
  if (slots == 1) {
    for (std::int64_t i = 0; i < n; ++i) body(i);
  } else if (dynamic) {
    DynamicIndices indices{n};
    auto task = [&](int) { indices.drain(body); };
    run_slots(slots, task);
  } else {
    auto task = [&](int slot) {
      const auto [begin, end] = static_chunk(n, slots, slot);
      for (std::int64_t i = begin; i < end; ++i) body(i);
    };
    run_slots(slots, task);
  }
}

}  // namespace parallel_detail

/// Parallel for over [0, n), indices handed out one at a time.
template <typename Body>
void parallel_for(std::int64_t n, Body&& body) {
  parallel_detail::loop(n, 0, true, body);
}

/// parallel_for with an explicit thread-count cap.  threads <= 0 means the
/// default; threads == 1 runs the loop serially on the calling thread.  Used
/// where callers expose a parallelism knob (e.g. the batch executor).
template <typename Body>
void parallel_for_threads(std::int64_t n, int threads, Body&& body) {
  parallel_detail::loop(n, threads, true, body);
}

/// Parallel for with one contiguous chunk per thread; use for uniform,
/// fine-grained work (e.g. amplitude loops).
template <typename Body>
void parallel_for_static(std::int64_t n, Body&& body) {
  parallel_detail::loop(n, 0, false, body);
}

/// Dynamic parallel for over [0, n) with one side task for the calling
/// thread: the workers start on body at once, while the caller runs side()
/// first and then joins the loop.  Loops nested in either part run serially.
/// An exception from side() is rethrown after the loop drains; exceptions
/// must not escape body.  Inside a parallel region, or with one thread,
/// side() and then the loop run serially on the caller.
template <typename Body, typename Side>
void parallel_for_beside(std::int64_t n, Body&& body, Side&& side) {
  std::exception_ptr error;
  const auto run_side = [&] {
    try {
      side();
    } catch (...) {
      error = std::current_exception();
    }
  };
  const int slots = parallel_detail::region_slots(n + 1, 0);  // side + n bodies
  if (slots == 1) {
    run_side();
    for (std::int64_t i = 0; i < n; ++i) body(i);
  } else {
    parallel_detail::DynamicIndices indices{n};
    auto task = [&](int slot) {
      if (slot == 0) run_side();
      indices.drain(body);
    };
    parallel_detail::run_slots(slots, task);
  }
  if (error) std::rethrow_exception(error);
}

/// Parallel sum of body(i) over [0, n); T is body's return type and needs
/// `+=` and a zero value T{} (double, std::complex<double>).
template <typename Body, typename T = std::decay_t<std::invoke_result_t<Body&, std::int64_t>>>
T parallel_reduce(std::int64_t n, Body&& body) {
  const int slots = parallel_detail::region_slots(n, 0);
  std::vector<T> partial(static_cast<std::size_t>(slots), T{});
  auto task = [&](int slot) {
    const auto [begin, end] = parallel_detail::static_chunk(n, slots, slot);
    T acc{};
    for (std::int64_t i = begin; i < end; ++i) acc += body(i);
    partial[static_cast<std::size_t>(slot)] = acc;
  };
  if (slots == 1) {
    task(0);
  } else {
    parallel_detail::run_slots(slots, task);
  }
  T total{};
  for (const T& p : partial) total += p;
  return total;
}

}  // namespace qdb
