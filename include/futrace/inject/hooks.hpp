#pragma once

/// \file hooks.hpp
/// The runtime-facing face of fault injection. The public construct headers
/// (async/get/put) and the parallel engine call these free functions at
/// every injectable site; with no injector installed each hook is one
/// relaxed atomic load and a never-taken branch, so production executions
/// pay nothing measurable. This header is deliberately dependency-free —
/// it is included from the runtime's public headers.

#include <atomic>
#include <cstdint>

namespace futrace::inject {

class fault_injector;

namespace detail {

/// The installed injector (nullptr when fault injection is off). Installed
/// and cleared by scoped_injector (fault_injector.hpp).
extern std::atomic<fault_injector*> g_injector;

// Slow paths, defined in the inject library.
void spawn_site_slow(fault_injector& inj);  // may throw injected_fault
void get_site_slow(fault_injector& inj);    // may throw injected_fault
void put_site_slow(fault_injector& inj);    // may throw injected_fault
bool drop_put_slow(fault_injector& inj) noexcept;
void epoch_reset_slow(fault_injector& inj);  // may throw injected_fault
std::uint32_t steal_start_slow(fault_injector& inj, std::uint32_t self,
                               std::uint32_t workers,
                               std::uint32_t fallback) noexcept;
bool yield_slow(fault_injector& inj) noexcept;
int pipe_worker_slow(fault_injector& inj) noexcept;
std::uint32_t pipe_ring_full_slow(fault_injector& inj) noexcept;

}  // namespace detail

inline fault_injector* current_injector() noexcept {
  return detail::g_injector.load(std::memory_order_acquire);
}

/// Fired by async()/async_future() at the call site, inside the spawning
/// task's body. Throws injected_fault when the plan's trigger fires.
inline void spawn_site() {
  if (fault_injector* inj = current_injector()) [[unlikely]] {
    detail::spawn_site_slow(*inj);
  }
}

/// Fired by future<T>::get() and promise<T>::get().
inline void get_site() {
  if (fault_injector* inj = current_injector()) [[unlikely]] {
    detail::get_site_slow(*inj);
  }
}

/// Fired by promise<T>::put() before the engine is notified.
inline void put_site() {
  if (fault_injector* inj = current_injector()) [[unlikely]] {
    detail::put_site_slow(*inj);
  }
}

/// Fired by the race detector at a quiescent point, immediately before an
/// epoch compaction runs. Throws injected_fault when the plan's
/// epoch-reset trigger fires.
inline void epoch_reset_site() {
  if (fault_injector* inj = current_injector()) [[unlikely]] {
    detail::epoch_reset_slow(*inj);
  }
}

/// True iff this promise fulfillment should be silently lost.
inline bool drop_put_site() noexcept {
  fault_injector* inj = current_injector();
  return inj != nullptr && detail::drop_put_slow(*inj);
}

/// Steal-victim starting index for worker `self`; returns `fallback`
/// (the engine's own choice) when no perturbation is armed.
inline std::uint32_t steal_start_site(std::uint32_t self,
                                      std::uint32_t workers,
                                      std::uint32_t fallback) noexcept {
  fault_injector* inj = current_injector();
  return inj == nullptr
             ? fallback
             : detail::steal_start_slow(*inj, self, workers, fallback);
}

/// True iff the worker should yield before this help/steal attempt.
inline bool yield_site() noexcept {
  fault_injector* inj = current_injector();
  return inj != nullptr && detail::yield_slow(*inj);
}

/// Fired by a pipelined-detector checker worker before processing each
/// event. Returns inject::pipe_proceed / pipe_stall / pipe_kill.
inline int pipe_worker_site() noexcept {
  fault_injector* inj = current_injector();
  return inj == nullptr ? 0 : detail::pipe_worker_slow(*inj);
}

/// Fired by the pipelined-detector producer before each ring push; a
/// nonzero return forces that many backpressure spins even though the ring
/// has space.
inline std::uint32_t pipe_ring_full_site() noexcept {
  fault_injector* inj = current_injector();
  return inj == nullptr ? 0 : detail::pipe_ring_full_slow(*inj);
}

}  // namespace futrace::inject
