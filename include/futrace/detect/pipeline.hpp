#pragma once

/// \file pipeline.hpp
/// Pipelined race detection (`--detect-threads=N`): overlap the serial
/// depth-first execution with race checking instead of paying the full
/// detector on the execution thread.
///
/// Pipelined mode is parallel-detect fed by the serial engine (DESIGN.md
/// §10): a private parallel_detector (parallel_pipeline.hpp) with one
/// producer — the execution thread — and N address-sharded checkers. The
/// observer stream is translated onto the parallel wire:
///
///   - every task id becomes the pid of its continuation chain's base task;
///   - continuation spawns and their task ends are dropped, because the
///     checkers' replayer re-derives every split, and the root's task end
///     is dropped, because the replayer closes the root at EOF;
///   - on_finish_start becomes emit_finish_begin, and finish ends carry no
///     joined list (the replayer rebuilds it);
///   - puts are numbered: a promise get carries its put's ordinal, a future
///     get the producing pid.
///
/// The single producer emits in serial order, so every checker's replayer
/// applies each event as it arrives (its FIFO fast path). Verdicts, the
/// report list (inline order, also under max_reports) and the paper-level
/// counters of Table 2 equal the inline detector's; engine-tier diagnostics
/// (direct/hashed/stamp hit counts and the like) depend on the sharding and
/// are only comparable between runs of the same configuration.
///
/// Failure model (parallel-detect's): a full ring backpressures the
/// execution thread. A checker that dies (fault injection, thread-start
/// failure) flips its shard to spill mode: the producer buffers the shard's
/// events, and finalize replays them on the querying thread. A refused ring
/// allocation spills every event from the start. Sticky, counted, never a
/// deadlock or a lost event. options::fail_fast forces inline mode
/// outright: the first race must throw at the faulting access on the
/// execution thread.

#include <cstdint>
#include <memory>
#include <vector>

#include "futrace/detect/race_detector.hpp"
#include "futrace/detect/shard.hpp"
#include "futrace/runtime/observer.hpp"

namespace futrace::detect {

/// Pipeline-plumbing counters (reported next to detector_counters; these
/// are timing/address-dependent diagnostics, never equality-gated across
/// configurations).
struct pipeline_stats {
  std::uint64_t workers = 0;        // shard checkers
  std::uint64_t ring_capacity = 0;  // slots per ring (pow2; 0 = no rings)
  std::uint64_t events = 0;         // wire events emitted by producers
  std::uint64_t access_events = 0;  // subset routed by address
  /// Extra sub-events minted when a range access straddled chunk owners.
  std::uint64_t split_subevents = 0;
  /// Producer spins while a ring was full (the backpressure path).
  std::uint64_t backpressure_waits = 0;
  /// Ring fill-level sampling (every 64th push), for the Pipe% column.
  std::uint64_t occupancy_samples = 0;
  std::uint64_t occupancy_sum = 0;
  /// Events a checker never consumed — left in its ring when it died, or
  /// spilled producer-side after its death or a refused ring allocation —
  /// and replayed at finalize instead. Sticky degradation, not an error:
  /// verdicts stay exact, overlap is lost for the affected shard.
  std::uint64_t inline_fallbacks = 0;
  std::uint64_t workers_died = 0;

  /// Mean sampled ring occupancy as a percentage of capacity.
  double occupancy_pct() const noexcept {
    if (occupancy_samples == 0 || ring_capacity == 0) return 0.0;
    return 100.0 * static_cast<double>(occupancy_sum) /
           (static_cast<double>(occupancy_samples) *
            static_cast<double>(ring_capacity));
  }
};

/// Drop-in replacement for attaching a race_detector directly: construct
/// with options whose detect_threads selects inline (0) or pipelined (N)
/// checking, attach to the runtime, query results after run(). In pipelined
/// mode every query (pipe_stats() included) finalizes on first use: it
/// closes the stream, joins the checkers and merges the shards, so query
/// only after the run.
class pipelined_detector final : public execution_observer {
 public:
  struct tuning {
    /// Slots per checker ring (rounded up to a power of two). 16Ki slots =
    /// 1 MiB per ring: deep enough to absorb checker hiccups, small enough
    /// to stay resident in L2/L3.
    std::size_t ring_capacity = std::size_t{1} << 14;
    /// log2 of the address-chunk size dealt round-robin to checkers.
    unsigned chunk_shift = k_default_chunk_shift;
  };

  explicit pipelined_detector(race_detector::options opts);
  pipelined_detector(race_detector::options opts, tuning tune);
  ~pipelined_detector() override;

  pipelined_detector(const pipelined_detector&) = delete;
  pipelined_detector& operator=(const pipelined_detector&) = delete;
  pipelined_detector(pipelined_detector&&) noexcept;
  pipelined_detector& operator=(pipelined_detector&&) noexcept;

  // -- execution_observer ----------------------------------------------------
  void on_program_start(task_id root) override;
  void on_task_spawn(task_id parent, task_id child, task_kind kind) override;
  void on_task_end(task_id t) override;
  void on_finish_start(task_id owner) override;
  void on_finish_end(task_id owner, std::span<const task_id> joined) override;
  void on_get(task_id waiter, task_id target) override;
  void on_promise_put(task_id fulfiller) override;
  void on_read(task_id t, const void* addr, std::size_t size,
               access_site site) override;
  void on_write(task_id t, const void* addr, std::size_t size,
                access_site site) override;
  void on_read_range(task_id t, const void* addr, std::size_t count,
                     std::size_t stride, access_site site) override;
  void on_write_range(task_id t, const void* addr, std::size_t count,
                      std::size_t stride, access_site site) override;
  void on_region_retire(task_id t, const void* addr,
                        std::size_t bytes) override;
  void on_program_end() override;

  // -- results (mirror race_detector's query surface) -------------------------
  bool race_detected() const;
  std::uint64_t race_count() const;
  bool degraded() const;
  const std::vector<race_report>& reports() const;
  std::vector<const void*> racy_locations() const;
  detector_counters counters() const;
  std::size_t memory_bytes() const;
  const pipeline_stats& pipe_stats() const;

  /// Per-rule suppression hit counts (index-aligned with the rules of
  /// options::suppressions), summed across shards in pipelined mode.
  std::vector<std::uint64_t> suppression_hits() const;

  /// True when events go to the concurrent checkers (false in inline mode:
  /// detect_threads == 0 or fail_fast). A refused ring allocation keeps the
  /// detector pipelined with every event spilled (pipe_stats().ring_capacity
  /// == 0, inline_fallbacks > 0).
  bool pipelined() const;

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

}  // namespace futrace::detect
