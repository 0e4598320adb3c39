#pragma once

/// \file fault_plan.hpp
/// Declarative description of the faults one execution should suffer. A plan
/// is plain data: deterministic (trigger points are operation ordinals, not
/// wall-clock), serializable to/from command-line flags, and cheap to derive
/// from a seed — the fault_soak driver generates hundreds of them per run.
///
/// All `*_at` triggers are 1-based operation ordinals counted process-wide
/// by the installed fault_injector; 0 disables the trigger. In the serial
/// engines the ordinal order equals the depth-first program order, so the
/// same plan faults the same program point on every run (the determinism
/// invariant fault_soak checks). In parallel mode the ordinal is a global
/// atomic count, so *a* fault fires at the Nth operation but which task
/// performs it depends on the schedule.

#include <cstdint>
#include <string>

#include "futrace/support/flags.hpp"

namespace futrace::inject {

struct fault_plan {
  /// Seed for the schedule-perturbation randomness (victim selection,
  /// forced yields). Unrelated to the trigger ordinals below.
  std::uint64_t seed = 0;

  // -- Synthetic exceptions (injected_fault) at API sites --------------------
  std::uint64_t throw_at_spawn = 0;  // Nth async/async_future call site
  std::uint64_t throw_at_get = 0;    // Nth future/promise get() call site
  std::uint64_t throw_at_put = 0;    // Nth promise put() call site

  /// The Nth epoch-reset attempt throws just before compaction runs (the
  /// detector's quiescent-point hook; see race_detector::maybe_epoch_reset).
  /// In pipelined mode the ordinal counts attempts process-wide across the
  /// producer and every worker replica, so the throw lands in whichever
  /// replica reaches the armed attempt — a worker death during reset.
  std::uint64_t throw_at_epoch_reset = 0;

  // -- Lost synchronization --------------------------------------------------
  /// The Nth promise fulfillment is silently dropped: the value is stored
  /// but never published, so later getters see an unfulfilled promise —
  /// the paper's Appendix A deadlock path.
  std::uint64_t drop_put_at = 0;

  // -- Resource exhaustion ---------------------------------------------------
  /// The Nth gated allocation (arena block, shadow-memory cell) is denied.
  std::uint64_t fail_alloc_at = 0;
  /// After fail_alloc_at fired, additionally deny every Nth allocation.
  std::uint64_t fail_alloc_every = 0;

  // -- Schedule perturbation (parallel engine only) --------------------------
  /// Replace the engine's steal-victim starting point with a seeded
  /// pseudo-random one, exploring different steal orders.
  bool perturb_steals = false;
  /// Force a yield before every Nth help/steal attempt; 0 disables.
  std::uint32_t yield_every = 0;

  // -- Pipelined-detector faults (detect/pipeline.hpp) -----------------------
  /// Stall the checker worker about to process the Nth pipeline event (a
  /// finite sleep), backing events up into its ring so the producer hits
  /// backpressure.
  std::uint64_t pipe_stall_at = 0;
  /// Kill the checker worker about to process the Nth pipeline event: the
  /// worker exits without draining its ring; the producer must detect the
  /// death and degrade that shard to inline checking.
  std::uint64_t pipe_kill_at = 0;
  /// Starting at the Nth producer-side ring push, pretend the ring is full
  /// for pipe_ring_full_spins backpressure spins before proceeding.
  std::uint64_t pipe_ring_full_at = 0;
  std::uint32_t pipe_ring_full_spins = 0;

  /// True iff any trigger is armed.
  bool any() const noexcept {
    return throw_at_spawn != 0 || throw_at_get != 0 || throw_at_put != 0 ||
           throw_at_epoch_reset != 0 || drop_put_at != 0 ||
           fail_alloc_at != 0 || perturb_steals || yield_every != 0 ||
           pipe_stall_at != 0 || pipe_kill_at != 0 || pipe_ring_full_at != 0;
  }

  /// Human-readable one-line summary ("spawn-throw@3 yield-every=7 ...").
  std::string describe() const;
};

/// Registers the `--fault-*` flags a tool needs to accept a plan from the
/// command line, and reads them back.
void define_fault_flags(support::flag_parser& flags);
fault_plan fault_plan_from_flags(const support::flag_parser& flags);

}  // namespace futrace::inject
