#pragma once

/// \file parallel_sink.hpp
/// Event sink for `exec_mode::parallel_detect`: the work-stealing engine
/// streams one event per construct to this interface *from the worker thread
/// that executed the construct*, identified by its worker index. Task ids
/// here are the parallel engine's spawn-order ids ("pids"), not the dense
/// serial ids observers see — the detector's replayer reconstructs the serial
/// depth-first numbering from the stream structure (DESIGN.md §14).
///
/// Threading contract:
///  - begin() is called once, before any worker thread exists.
///  - emit_* calls for one worker index come from exactly one OS thread at a
///    time (the worker's), so a per-worker implementation needs no locking.
///  - program_done() is called once, on the main thread, after every worker
///    has been joined; no emit_* call can be concurrent with or follow it.

#include <cstddef>
#include <cstdint>

#include "futrace/runtime/observer.hpp"

namespace futrace::detail {

struct parallel_sink {
  virtual ~parallel_sink() = default;

  /// Announces the worker count before execution starts; the sink sizes its
  /// per-worker transport here.
  virtual void begin(unsigned workers) = 0;

  /// Root task (pid 0) starts on worker 0.
  virtual void emit_program_start(unsigned worker, task_id root) = 0;

  /// `parent` (running on `worker`) spawned `child`; emitted before the
  /// child is published to any deque, so the spawn precedes every event of
  /// the child's subtree in the parent's stream.
  virtual void emit_spawn(unsigned worker, task_id parent, task_id child,
                          task_kind kind) = 0;

  /// Task `t`'s body finished (normally or by exception) on `worker`.
  virtual void emit_task_end(unsigned worker, task_id t) = 0;

  virtual void emit_finish_begin(unsigned worker, task_id owner) = 0;
  /// Emitted after the finish joined (pending count reached zero); never
  /// emitted for an abandoned finish — the replayer closes those at EOF.
  virtual void emit_finish_end(unsigned worker, task_id owner) = 0;

  /// `waiter` observed the awaited state settled. `producer` is the
  /// producing pid (futures and tracked promise puts); `put_ref` is the
  /// global put ordinal for promise states, 0 for plain futures.
  virtual void emit_get(unsigned worker, task_id waiter, task_id producer,
                        std::uint64_t put_ref) = 0;

  /// `fulfiller` settled a promise; `put_ref` is its global put ordinal.
  virtual void emit_put(unsigned worker, task_id fulfiller,
                        std::uint64_t put_ref) = 0;

  virtual void emit_read(unsigned worker, task_id t, const void* addr,
                         std::size_t size, access_site site) = 0;
  virtual void emit_write(unsigned worker, task_id t, const void* addr,
                          std::size_t size, access_site site) = 0;
  virtual void emit_read_range(unsigned worker, task_id t, const void* addr,
                               std::size_t count, std::size_t stride,
                               access_site site) = 0;
  virtual void emit_write_range(unsigned worker, task_id t, const void* addr,
                                std::size_t count, std::size_t stride,
                                access_site site) = 0;

  /// Task `t` (on `worker`) freed the tracked region [addr, addr+bytes);
  /// ordered like an access in t's stream, so the detector retires the
  /// region's shadow identities at the right serial step.
  virtual void emit_region_retire(unsigned worker, task_id t, const void* addr,
                                  std::size_t bytes) = 0;

  /// End of stream: all workers joined, no further emissions possible.
  virtual void program_done() = 0;
};

}  // namespace futrace::detail
