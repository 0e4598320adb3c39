#pragma once

/// \file event_ring.hpp
/// The event vocabulary of concurrent detection (parallel_pipeline.hpp; the
/// pipelined detector uses the same wire with one producer): one
/// cache-line-sized slot per event, streamed from each producer to each
/// shard checker through a bounded support::spsc_ring (one ring per
/// (producer, checker) pair, so every ring is strictly single-producer
/// single-consumer). Every event occupies exactly one slot.
///
/// Task ids on the wire are pids (spawn-order ids of non-continuation
/// tasks); the checkers' replayer renumbers them into the serial dense ids.
/// Two event families share the encoding:
///
///   - Structure events (program start, spawn, task end, finish begin/end,
///     get, put). Broadcast to *every* checker: each replays the full
///     structure into its private reachability-graph replica.
///   - Access events (read/write, scalar and range). Routed to exactly one
///     checker by the sharding rule (shard.hpp); range events are split at
///     chunk boundaries into per-owner sub-events, numbered by `sub` so the
///     serial interleaving of reports can be reconstructed exactly.

#include <cstddef>
#include <cstdint>

#include "futrace/runtime/observer.hpp"
#include "futrace/support/spsc_ring.hpp"

namespace futrace::detect {

enum class pipe_op : std::uint8_t {
  program_start,  // task = root
  spawn,          // task = parent, a = child, b = task_kind
  task_end,       // task = t
  finish_end,     // task = owner (the replayer rebuilds the joined list)
  get,            // task = waiter, a = producer pid, b = put ordinal or 0
  put,            // task = fulfiller, a = put ordinal
  read,           // task, a = addr (canonical), b = size, stride = user addr
  write,          // task, a = addr (canonical), b = size, stride = user addr
  read_range,     // task, a = addr, b = count, stride
  write_range,    // task, a = addr, b = count, stride
  finish_begin,   // task = owner
  /// A heap block / annotated region was freed (futrace/hook): task = the
  /// freeing task, a = base address, b = byte length. Access-class — it
  /// mutates only shadow state — but sent to *every* checker, because the
  /// retired range may span cells owned by several shards; each checker
  /// retires only the cells it owns.
  region_retire,
};

struct alignas(64) pipe_event {
  pipe_op op = pipe_op::program_start;
  std::uint8_t pad8 = 0;
  std::uint16_t pad16 = 0;
  std::uint32_t sub = 0;   // sub-event index within one producer event
  task_id task = 0;        // the event's acting task (pid)
  std::uint32_t line = 0;  // access_site line
  std::uint64_t seq = 0;   // producer event ordinal (report-merge key)
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t stride = 0;
  const char* file = nullptr;  // access_site file (static-duration string)
};
static_assert(sizeof(pipe_event) == 64,
              "one event per cache line; adjust the layout, not the assert");

using event_ring = support::spsc_ring<pipe_event>;

}  // namespace futrace::detect
