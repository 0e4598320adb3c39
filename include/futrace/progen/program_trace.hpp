#pragma once

/// \file program_trace.hpp
/// Schedule-independent random program traces for differential testing of
/// the parallel-detect mode against the serial inline detector.
///
/// random_program.hpp generates *while executing*: its RNG is consumed in
/// serial depth-first order, so replaying the same object under a parallel
/// schedule would consume it in a different order and execute a different
/// program. program_trace instead freezes the whole program — a statement
/// tree over shared variables, futures, and promises — at construction, by
/// simulating the serial depth-first execution while generating. Replay
/// (operator()) then just walks the frozen tree, so the *same* program runs
/// under `serial_dfs` and under `parallel_detect` with any worker count,
/// and the reconstructed serial event streams must be bit-identical.
///
/// Every generated trace is safe to execute in parallel by construction:
///
///  - Handle flow is snapshot-at-spawn: a task may only touch futures it
///    spawned itself or that existed in its parent's visible set at its own
///    spawn point. The write of a future handle into its pool slot
///    therefore happens-before every read of that slot (program order, or
///    the spawn edge), with no synchronization on the slots themselves.
///  - get() targets are serially feasible: generation simulates the serial
///    execution, so a future get names an already-elided future and a
///    promise get names a promise whose put already executed serially.
///    Serial feasibility implies parallel deadlock-freedom because a
///    blocked wait helps only with tasks serially before its own point
///    (DESIGN.md "Restricted helping"): the wait-for relation follows
///    decreasing serial positions, and so does every helper stack.
///  - Promise handles and the future pool are (re)constructed in the root
///    body before any spawn, so replays can repeat on one object.
///
/// Generated accesses on the shared variables may race — that is the point
/// of the differential suite — but the values written are generation-time
/// constants, so execution never diverges across schedules. For fixtures
/// that must also be clean under ThreadSanitizer, `race_free = true` turns
/// every write action into a read (the variables then stay constant for the
/// whole run).

#include <cstdint>
#include <vector>

#include "futrace/runtime/runtime.hpp"
#include "futrace/support/rng.hpp"

namespace futrace::progen {

struct trace_config {
  std::uint64_t seed = 1;

  int max_depth = 4;   // nesting depth of spawned bodies
  int min_stmts = 2;   // statements per body
  int max_stmts = 8;
  int num_vars = 8;    // shared variables
  int max_tasks = 200; // cap on spawned tasks (async + future)
  int max_range_len = 4;

  /// Turn every write/range-write action into the corresponding read, so
  /// the replay is ThreadSanitizer-clean under any schedule.
  bool race_free = false;

  // Relative action weights inside a body.
  double w_read = 4.0;
  double w_write = 3.0;
  double w_range_read = 1.2;
  double w_range_write = 0.9;
  double w_async = 1.2;
  double w_future = 1.4;
  double w_finish = 0.8;
  double w_get = 1.8;
  double w_promise = 0.5;
  double w_put = 0.9;
  double w_promise_get = 0.9;
};

struct trace_stats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t range_reads = 0;
  std::uint64_t range_writes = 0;
  std::uint64_t asyncs = 0;
  std::uint64_t futures = 0;
  std::uint64_t finishes = 0;
  std::uint64_t gets = 0;
  std::uint64_t promises = 0;
  std::uint64_t puts = 0;
  std::uint64_t promise_gets = 0;
};

class program_trace {
 public:
  explicit program_trace(trace_config config);

  /// Replays the frozen trace as the main-task body (pass to runtime::run).
  /// Callable repeatedly, under any exec_mode.
  void operator()();

  const trace_stats& stats() const noexcept { return stats_; }

  /// Addresses of the shared variables, stable across replays (for mapping
  /// race verdicts between runs of the same trace).
  const void* var_address(int i) const { return vars_.address(i); }
  int num_vars() const { return config_.num_vars; }

 private:
  enum class op : std::uint8_t {
    read,         // a = var
    write,        // a = var, b = value
    range_read,   // a = first var, b = length
    range_write,  // a = first var, b = length
    spawn_async,  // child = body
    spawn_future, // a = pool slot, child = body
    finish_block, // child = body
    get_future,   // a = pool slot
    put_promise,  // a = promise, b = value
    get_promise,  // a = promise
  };

  struct stmt {
    op kind = op::read;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t child = 0;
  };

  struct body_t {
    std::vector<stmt> stmts;
  };

  /// Handles visible to the body being generated (value flow: own spawns
  /// plus the parent's snapshot at this body's spawn point).
  struct visible_state {
    std::vector<std::uint32_t> futures;
    std::vector<std::uint32_t> promises;
  };

  std::uint32_t gen_body(int depth, visible_state visible);
  void run_body(std::uint32_t bi);

  struct gen_ctx;        // construction-time serial simulation state
  gen_ctx* gen_ = nullptr;

  trace_config config_;
  std::vector<body_t> bodies_;
  std::uint32_t num_futures_ = 0;
  std::uint32_t num_promises_ = 0;
  trace_stats stats_;

  // Replay state (reset by operator() before any spawn).
  shared_array<int> vars_;
  std::vector<future<int>> pool_;
  std::vector<promise<int>> promises_;
};

}  // namespace futrace::progen
