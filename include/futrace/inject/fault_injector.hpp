#pragma once

/// \file fault_injector.hpp
/// Executes a fault_plan against a running program. One injector instance is
/// installed process-wide with scoped_injector; the runtime's construct
/// headers and the parallel engine consult it through the hooks in
/// hooks.hpp, and the support allocation gate routes through it for
/// arena/shadow-memory allocation failures.
///
/// All trigger counters are atomics, so one injector observes a parallel
/// execution coherently; in serial modes the counters advance in exactly
/// the depth-first program order, which makes every injected fault
/// reproducible from (program seed, plan) alone.

#include <atomic>
#include <cstdint>

#include "futrace/inject/fault_plan.hpp"
#include "futrace/inject/hooks.hpp"
#include "futrace/runtime/errors.hpp"

namespace futrace::inject {

/// The synthetic exception thrown at armed spawn/get/put sites. Derives from
/// futrace::runtime_error so generic handlers treat it like any runtime
/// failure, but is distinguishable for tests and the soak harness.
class injected_fault : public futrace::runtime_error {
 public:
  using runtime_error::runtime_error;
};

class fault_injector {
 public:
  explicit fault_injector(fault_plan plan) : plan_(plan) {}

  const fault_plan& plan() const noexcept { return plan_; }

  /// What actually fired, for harness assertions ("the planned fault was
  /// reached") and reporting.
  struct counters {
    std::uint64_t spawn_sites = 0;
    std::uint64_t get_sites = 0;
    std::uint64_t put_sites = 0;
    std::uint64_t epoch_reset_sites = 0;
    std::uint64_t alloc_gates = 0;
    std::uint64_t thrown_spawn = 0;
    std::uint64_t thrown_get = 0;
    std::uint64_t thrown_put = 0;
    std::uint64_t thrown_epoch_reset = 0;
    std::uint64_t dropped_puts = 0;
    std::uint64_t failed_allocs = 0;
    std::uint64_t forced_yields = 0;
    std::uint64_t perturbed_steals = 0;
    std::uint64_t pipe_stalls = 0;
    std::uint64_t pipe_kills = 0;
    std::uint64_t pipe_forced_fulls = 0;

    std::uint64_t faults_fired() const noexcept {
      return thrown_spawn + thrown_get + thrown_put + thrown_epoch_reset +
             dropped_puts + failed_allocs + pipe_stalls + pipe_kills +
             pipe_forced_fulls;
    }
  };

  counters snapshot() const noexcept;

  // -- Hook backends (called via inject::*_site) -----------------------------
  void op_spawn();  // throws injected_fault at the armed ordinal
  void op_get();
  void op_put();
  void op_epoch_reset();
  bool drop_put() noexcept;
  bool fail_alloc(std::size_t bytes) noexcept;
  std::uint32_t steal_start(std::uint32_t self, std::uint32_t workers,
                            std::uint32_t fallback) noexcept;
  bool force_yield() noexcept;
  /// Pipeline checker-worker action for the next event: pipe_proceed,
  /// pipe_stall (sleep briefly, then process), or pipe_kill (exit without
  /// draining). Ordinals count events process-wide across all workers.
  int pipe_worker_event() noexcept;
  /// Forced backpressure spins for this producer push (0 = none).
  std::uint32_t pipe_ring_full() noexcept;

 private:
  fault_plan plan_;
  std::atomic<std::uint64_t> spawn_sites_{0};
  std::atomic<std::uint64_t> get_sites_{0};
  std::atomic<std::uint64_t> put_sites_{0};
  std::atomic<std::uint64_t> epoch_reset_sites_{0};
  std::atomic<std::uint64_t> puts_seen_{0};  // drop-put trigger counter
  std::atomic<std::uint64_t> allocs_seen_{0};
  std::atomic<std::uint64_t> steal_calls_{0};
  std::atomic<std::uint64_t> thrown_spawn_{0};
  std::atomic<std::uint64_t> thrown_get_{0};
  std::atomic<std::uint64_t> thrown_put_{0};
  std::atomic<std::uint64_t> thrown_epoch_reset_{0};
  std::atomic<std::uint64_t> dropped_puts_{0};
  std::atomic<std::uint64_t> failed_allocs_{0};
  std::atomic<std::uint64_t> forced_yields_{0};
  std::atomic<std::uint64_t> perturbed_steals_{0};
  std::atomic<std::uint64_t> pipe_events_{0};  // worker-side event ordinal
  std::atomic<std::uint64_t> pipe_pushes_{0};  // producer-side push ordinal
  std::atomic<std::uint64_t> pipe_stalls_{0};
  std::atomic<std::uint64_t> pipe_kills_{0};
  std::atomic<std::uint64_t> pipe_forced_fulls_{0};
};

/// pipe_worker_event() verdicts.
inline constexpr int pipe_proceed = 0;
inline constexpr int pipe_stall = 1;
inline constexpr int pipe_kill = 2;

/// Installs `inj` as the process-wide injector (and wires the support
/// allocation gate to it) for the guard's lifetime. Not reentrant: at most
/// one injector may be installed at a time.
class scoped_injector {
 public:
  explicit scoped_injector(fault_injector& inj);
  ~scoped_injector();

  scoped_injector(const scoped_injector&) = delete;
  scoped_injector& operator=(const scoped_injector&) = delete;
};

}  // namespace futrace::inject
