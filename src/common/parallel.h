// Parallel loop helpers with two interchangeable backends.
//
// All fan-out in QDockBank (shot batches, docking runs, dataset entries,
// enumeration subtrees) goes through these wrappers so the code reads the
// same with or without a parallel runtime and stays correct on a single core.
//
// Backends:
//   - OpenMP (default when compiled with -fopenmp): the historical backend.
//   - std::thread (QDB_PARALLEL_FORCE_THREADS, set by -DQDB_TSAN=ON): spawns
//     plain instrumentable threads running the same loop bodies.  libgomp is
//     not ThreadSanitizer-instrumented — its barriers and task handoffs are
//     invisible to the runtime and produce false positives — so the TSan
//     build routes every wrapper through this backend instead of
//     suppressing reports.  Races in *our* loop bodies remain fully visible.
//   - serial fallback when neither is available.
//
// Determinism note: parallel_for / parallel_for_threads / parallel_for_static
// / parallel_for_beside touch disjoint state per index, so their results are
// independent of the backend and thread count.  parallel_reduce /
// parallel_reduce_pair reduce in a backend-dependent association order;
// callers must tolerate the usual floating-point reassociation (all current
// callers are tolerance-based).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <utility>

#if defined(QDB_PARALLEL_FORCE_THREADS)
#include <atomic>
#include <thread>
#include <vector>
#elif defined(_OPENMP)
#include <omp.h>
#endif

namespace qdb {

namespace parallel_detail {

/// parallel_for_beside's serial form: side() and then the loop, with an
/// exception from side() rethrown only after the loop has run.
template <typename Body, typename Side>
void side_then_loop(std::int64_t n, Body& body, Side& side) {
  std::exception_ptr error;
  try {
    side();
  } catch (...) {
    error = std::current_exception();
  }
  for (std::int64_t i = 0; i < n; ++i) body(i);
  if (error) std::rethrow_exception(error);
}

}  // namespace parallel_detail

#if defined(QDB_PARALLEL_FORCE_THREADS)

namespace parallel_detail {

/// Nested-parallelism guard: OpenMP runs nested parallel regions serially by
/// default (nesting disabled), and the batch executor relies on that — an
/// outer parallel_for_threads over jobs fans each job's energy batches
/// through inner parallel loops.  The thread backend mimics the same policy
/// with a thread-local "inside a parallel region" flag, which also bounds
/// thread creation to one level.
inline bool& in_parallel_region() {
  thread_local bool flag = false;
  return flag;
}

inline int default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Run body(i) for i in [0, n) on `threads` plain threads pulling indices
/// from a shared atomic counter (the moral equivalent of schedule(dynamic,1);
/// also correct for static workloads, just with more counter traffic).
template <typename Body>
void run_dynamic(std::int64_t n, int threads, Body&& body) {
  if (n <= 0) return;
  if (threads <= 0) threads = default_threads();
  if (threads == 1 || n == 1 || in_parallel_region()) {
    for (std::int64_t i = 0; i < n; ++i) body(i);
    return;
  }
  if (static_cast<std::int64_t>(threads) > n) threads = static_cast<int>(n);
  std::atomic<std::int64_t> next{0};
  auto worker = [&]() {
    in_parallel_region() = true;
    for (std::int64_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
    }
    in_parallel_region() = false;
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads) - 1);
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();  // calling thread participates
  for (std::thread& th : pool) th.join();
}

}  // namespace parallel_detail

inline int hardware_threads() { return parallel_detail::default_threads(); }

/// Parallel for over [0, n).  body must be safe to run concurrently for
/// distinct indices.  Exceptions must not escape body.
template <typename Body>
void parallel_for(std::int64_t n, Body&& body) {
  parallel_detail::run_dynamic(n, 0, body);
}

/// Parallel for over [0, n) with an explicit thread-count cap.  threads <= 0
/// means "use the default"; threads == 1 runs the loop serially on the
/// calling thread.  Used where callers expose a parallelism knob (e.g. the
/// batch executor).
template <typename Body>
void parallel_for_threads(std::int64_t n, int threads, Body&& body) {
  if (threads == 1) {
    for (std::int64_t i = 0; i < n; ++i) body(i);
  } else {
    parallel_detail::run_dynamic(n, threads, body);
  }
}

/// Parallel for with a static schedule; use for uniform, fine-grained work
/// (e.g. amplitude loops).  The thread backend reuses the dynamic pool — the
/// schedule only affects load balance, never results.
template <typename Body>
void parallel_for_static(std::int64_t n, Body&& body) {
  parallel_detail::run_dynamic(n, 0, body);
}

/// Dynamic parallel for over [0, n) with one side task for the calling
/// thread: the pool threads start on body at once, while the caller runs
/// side() first and then joins the loop.  Loops nested in either part run
/// serially (the one-level rule).  An exception from side() is rethrown
/// after the loop drains; exceptions must not escape body.  Inside a
/// parallel region, or with one thread, side() and then the loop run
/// serially on the caller.
template <typename Body, typename Side>
void parallel_for_beside(std::int64_t n, Body&& body, Side&& side) {
  std::int64_t pool_size = parallel_detail::default_threads() - 1;
  if (pool_size > n) pool_size = n;
  if (pool_size <= 0 || parallel_detail::in_parallel_region()) {
    parallel_detail::side_then_loop(n, body, side);
    return;
  }
  std::atomic<std::int64_t> next{0};
  auto drain = [&]() {
    for (std::int64_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(pool_size));
  for (std::int64_t t = 0; t < pool_size; ++t) {
    pool.emplace_back([&]() {
      parallel_detail::in_parallel_region() = true;
      drain();
      parallel_detail::in_parallel_region() = false;
    });
  }
  parallel_detail::in_parallel_region() = true;
  std::exception_ptr error;
  try {
    side();
  } catch (...) {
    error = std::current_exception();
  }
  drain();
  for (std::thread& th : pool) th.join();
  parallel_detail::in_parallel_region() = false;
  if (error) std::rethrow_exception(error);
}

/// Parallel sum-reduction of body(i) over [0, n).  Each worker accumulates a
/// private partial; partials are combined in worker order on the caller.
template <typename Body>
double parallel_reduce(std::int64_t n, Body&& body) {
  if (n <= 0) return 0.0;
  int threads = parallel_detail::default_threads();
  if (threads == 1 || n == 1 || parallel_detail::in_parallel_region()) {
    double total = 0.0;
    for (std::int64_t i = 0; i < n; ++i) total += body(i);
    return total;
  }
  if (static_cast<std::int64_t>(threads) > n) threads = static_cast<int>(n);
  std::vector<double> partial(static_cast<std::size_t>(threads), 0.0);
  std::atomic<std::int64_t> next{0};
  auto worker = [&](int slot) {
    parallel_detail::in_parallel_region() = true;
    double acc = 0.0;
    for (std::int64_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      acc += body(i);
    }
    partial[static_cast<std::size_t>(slot)] = acc;
    parallel_detail::in_parallel_region() = false;
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads) - 1);
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (std::thread& th : pool) th.join();
  double total = 0.0;
  for (double p : partial) total += p;
  return total;
}

/// Parallel reduction of a pair of accumulators: body(i) returns
/// {a_i, b_i}; the result is {sum a_i, sum b_i}.  Used for complex-valued
/// inner products (real/imag) without two passes over the data.
template <typename Body>
std::pair<double, double> parallel_reduce_pair(std::int64_t n, Body&& body) {
  if (n <= 0) return {0.0, 0.0};
  int threads = parallel_detail::default_threads();
  if (threads == 1 || n == 1 || parallel_detail::in_parallel_region()) {
    double a = 0.0, b = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      const auto [x, y] = body(i);
      a += x;
      b += y;
    }
    return {a, b};
  }
  if (static_cast<std::int64_t>(threads) > n) threads = static_cast<int>(n);
  std::vector<std::pair<double, double>> partial(
      static_cast<std::size_t>(threads), {0.0, 0.0});
  std::atomic<std::int64_t> next{0};
  auto worker = [&](int slot) {
    parallel_detail::in_parallel_region() = true;
    double a = 0.0, b = 0.0;
    for (std::int64_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      const auto [x, y] = body(i);
      a += x;
      b += y;
    }
    partial[static_cast<std::size_t>(slot)] = {a, b};
    parallel_detail::in_parallel_region() = false;
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads) - 1);
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (std::thread& th : pool) th.join();
  double a = 0.0, b = 0.0;
  for (const auto& [x, y] : partial) {
    a += x;
    b += y;
  }
  return {a, b};
}

#else  // OpenMP or serial backend -------------------------------------------

inline int hardware_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Parallel for over [0, n).  body must be safe to run concurrently for
/// distinct indices.  Exceptions must not escape body when OpenMP is enabled.
template <typename Body>
void parallel_for(std::int64_t n, Body&& body) {
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 1)
  for (std::int64_t i = 0; i < n; ++i) body(i);
#else
  for (std::int64_t i = 0; i < n; ++i) body(i);
#endif
}

/// Parallel for over [0, n) with an explicit thread-count cap.  threads <= 0
/// means "use the OpenMP default" (OMP_NUM_THREADS); threads == 1 runs the
/// loop serially on the calling thread.  Used where callers expose a
/// parallelism knob (e.g. the batch executor).
template <typename Body>
void parallel_for_threads(std::int64_t n, int threads, Body&& body) {
#ifdef _OPENMP
  if (threads == 1) {
    for (std::int64_t i = 0; i < n; ++i) body(i);
  } else if (threads <= 0) {
    parallel_for(n, body);
  } else {
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads)
    for (std::int64_t i = 0; i < n; ++i) body(i);
  }
#else
  (void)threads;
  for (std::int64_t i = 0; i < n; ++i) body(i);
#endif
}

/// Parallel for with a static schedule and a caller-chosen chunk size; use
/// for uniform, fine-grained work (e.g. amplitude loops).
template <typename Body>
void parallel_for_static(std::int64_t n, Body&& body) {
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) body(i);
#else
  for (std::int64_t i = 0; i < n; ++i) body(i);
#endif
}

/// Dynamic parallel for over [0, n) with one side task for the calling
/// thread: the team's other threads start on body at once, while the caller
/// (thread 0) runs side() first and then joins the loop.  Loops nested in
/// either part run serially (nesting is disabled).  An exception from
/// side() is rethrown after the loop drains; exceptions must not escape
/// body.  Inside a parallel region the team has one thread, so side() and
/// then the loop run serially on the caller.
template <typename Body, typename Side>
void parallel_for_beside(std::int64_t n, Body&& body, Side&& side) {
#ifdef _OPENMP
  std::exception_ptr error;
#pragma omp parallel
  {
    if (omp_get_thread_num() == 0) {
      try {
        side();
      } catch (...) {
        error = std::current_exception();
      }
    }
#pragma omp for schedule(dynamic, 1)
    for (std::int64_t i = 0; i < n; ++i) body(i);
  }
  if (error) std::rethrow_exception(error);
#else
  parallel_detail::side_then_loop(n, body, side);
#endif
}

/// Parallel sum-reduction of body(i) over [0, n).
template <typename Body>
double parallel_reduce(std::int64_t n, Body&& body) {
  double total = 0.0;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) reduction(+ : total)
  for (std::int64_t i = 0; i < n; ++i) total += body(i);
#else
  for (std::int64_t i = 0; i < n; ++i) total += body(i);
#endif
  return total;
}

/// Parallel reduction of a pair of accumulators: body(i) returns
/// {a_i, b_i}; the result is {sum a_i, sum b_i}.  Used for complex-valued
/// inner products (real/imag) without two passes over the data.
template <typename Body>
std::pair<double, double> parallel_reduce_pair(std::int64_t n, Body&& body) {
  double a = 0.0, b = 0.0;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) reduction(+ : a, b)
  for (std::int64_t i = 0; i < n; ++i) {
    const auto [x, y] = body(i);
    a += x;
    b += y;
  }
#else
  for (std::int64_t i = 0; i < n; ++i) {
    const auto [x, y] = body(i);
    a += x;
    b += y;
  }
#endif
  return {a, b};
}

#endif  // backend selection

}  // namespace qdb
