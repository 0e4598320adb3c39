// Address-reuse regression test for the heap-instrumentation layer
// (DESIGN.md §16): when unordered tasks each malloc, access, and free a
// block and the allocator hands both the SAME address, the detector must
// not report a race between the two never-coexisting objects — provided
// the frees retire the block's shadow identity. The reuse is
// placement-controlled: the "allocator" is the test, handing out one
// static buffer through direct note_alloc/note_free calls, so the hole is
// reproduced deterministically in every build (no interposition needed,
// sanitizer-safe).
//
// Each scenario runs twice per execution mode:
//  - hooks on: alloc/free bracket each lifetime -> no race, and the
//    address contributes TWO locations (one retired + one fresh), proving
//    the second life got a fresh identity instead of a recycled cell.
//  - hooks off (control): the same program with raw lifetimes -> exactly
//    the false race this layer exists to prevent, proving the scenario
//    actually exercises the hole.
//
// Modes: serial inline, serial pipelined (detect_threads=2), and
// parallel-detect at workers=1.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "futrace/detect/parallel_pipeline.hpp"
#include "futrace/detect/pipeline.hpp"
#include "futrace/detect/race_detector.hpp"
#include "futrace/hook/heap_hooks.hpp"
#include "futrace/runtime/runtime.hpp"

namespace futrace {
namespace {

struct verdict {
  bool raced = false;
  std::uint64_t races = 0;
  std::uint64_t locations = 0;
};

/// Two sibling asyncs — unordered in the DAG — each treat `slab` as a
/// freshly allocated object: alloc, one write, free. The serial elision
/// order runs them back to back, so the second task's "new" object lands
/// on the first task's dead address.
void reuse_program(unsigned char* slab, bool hooks) {
  finish([&] {
    async([slab, hooks] {
      if (hooks) hook::note_alloc(slab, sizeof(int));
      futrace::write_shared(*reinterpret_cast<int*>(slab), 1);
      if (hooks) hook::note_free(slab);
    });
    async([slab, hooks] {
      if (hooks) hook::note_alloc(slab, sizeof(int));
      futrace::write_shared(*reinterpret_cast<int*>(slab), 2);
      if (hooks) hook::note_free(slab);
    });
  });
}

class scoped_hooks {
 public:
  scoped_hooks() {
    hook::reset();
    hook::set_heap_instrumentation(true);
  }
  ~scoped_hooks() { hook::reset(); }
};

verdict run_serial(bool hooks, unsigned detect_threads) {
  scoped_hooks arm;
  alignas(8) unsigned char slab[8] = {};
  detect::race_detector::options opts;
  opts.detect_threads = detect_threads;
  opts.instrument_heap = hooks;
  verdict v;
  if (detect_threads == 0) {
    detect::race_detector det(opts);
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(&det);
    rt.run([&] { reuse_program(slab, hooks); });
    v = {det.race_detected(), det.race_count(), det.counters().locations};
  } else {
    detect::pipelined_detector det(opts);
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(&det);
    rt.run([&] { reuse_program(slab, hooks); });
    v = {det.race_detected(), det.race_count(), det.counters().locations};
  }
  return v;
}

verdict run_parallel(bool hooks) {
  scoped_hooks arm;
  alignas(8) unsigned char slab[8] = {};
  detect::race_detector::options opts;
  opts.instrument_heap = hooks;
  detect::parallel_detector det(opts);
  runtime rt({.mode = exec_mode::parallel_detect, .workers = 1});
  rt.add_parallel_sink(&det);
  rt.run([&] { reuse_program(slab, hooks); });
  return {det.race_detected(), det.race_count(), det.counters().locations};
}

void expect_reuse_clean(const verdict& v, const char* label) {
  EXPECT_FALSE(v.raced) << label
                        << ": recycled address inherited the dead object's "
                           "history (false race)";
  EXPECT_EQ(v.races, 0u) << label;
  // Fresh identity: the one byte-range was two distinct locations — the
  // retired first life plus the live second one.
  EXPECT_EQ(v.locations, 2u) << label;
}

void expect_control_races(const verdict& v, const char* label) {
  EXPECT_TRUE(v.raced)
      << label
      << ": control run must exhibit the false race the hooks prevent "
         "(otherwise this test exercises nothing)";
  EXPECT_EQ(v.locations, 1u) << label;
}

TEST(HeapReuse, SerialInlineFreshIdentity) {
  expect_reuse_clean(run_serial(true, 0), "serial inline");
  expect_control_races(run_serial(false, 0), "serial inline control");
}

TEST(HeapReuse, PipelinedFreshIdentity) {
  expect_reuse_clean(run_serial(true, 2), "pipelined");
  expect_control_races(run_serial(false, 2), "pipelined control");
}

TEST(HeapReuse, ParallelDetectReplicatedFreshIdentity) {
  expect_reuse_clean(run_parallel(true), "parallel-detect replicated");
  expect_control_races(run_parallel(false),
                       "parallel-detect replicated control");
}

/// Many reuse generations through one address: every generation must stay
/// clean and mint a fresh location.
TEST(HeapReuse, ManyGenerationsStayClean) {
  scoped_hooks arm;
  alignas(8) unsigned char slab[8] = {};
  constexpr int k_generations = 16;
  detect::race_detector det(detect::race_detector::options{});
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run([&] {
    finish([&] {
      for (int g = 0; g < k_generations; ++g) {
        async([&slab, g] {
          hook::note_alloc(slab, sizeof(int));
          futrace::write_shared(*reinterpret_cast<int*>(slab), g);
          hook::note_free(slab);
        });
      }
    });
  });
  EXPECT_FALSE(det.race_detected());
  EXPECT_EQ(det.counters().locations, static_cast<std::uint64_t>(k_generations));
}

/// Freeing a block larger than 1 KiB takes retire_region's table-sweep
/// path; the sweep runs only when a hashed key may lie inside the block.
TEST(HeapReuse, LargeBlockRetireSweepsOnlyWhenKeysMayBeInside) {
  scoped_hooks arm;
  alignas(64) static unsigned char arena[3 * 4096];
  unsigned char* written = arena;          // holds a hashed cell
  unsigned char* idle = arena + 2 * 4096;  // never accessed
  detect::race_detector::options opts;
  opts.instrument_heap = true;
  detect::race_detector det(opts);
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  std::uint64_t scans_after_idle = 0;
  rt.run([&] {
    hook::note_alloc(written, 4096);
    hook::note_alloc(idle, 4096);
    futrace::write_shared(*reinterpret_cast<int*>(written), 1);
    // A scalar between the blocks: the hashed keys span [arena, arena+4096].
    futrace::write_shared(*reinterpret_cast<int*>(arena + 4096), 2);
    hook::note_free(idle);
    scans_after_idle = det.storage_stats().migration_scans;
    hook::note_free(written);
  });
  EXPECT_EQ(scans_after_idle, 0u);
  EXPECT_EQ(det.storage_stats().migration_scans, 1u);
  EXPECT_FALSE(det.race_detected());
  // The written block's cell retired, the scalar's stays live.
  EXPECT_EQ(det.counters().locations, 2u);
}

/// A free with no runtime active (or inside machinery) cannot emit; the
/// retire is queued and must drain before the address's next registration
/// — so even a cross-run reuse starts fresh.
TEST(HeapReuse, DeferredRetireDrainsBeforeReuse) {
  scoped_hooks arm;
  alignas(8) unsigned char slab[8] = {};

  detect::race_detector det1(detect::race_detector::options{});
  {
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(&det1);
    rt.run([&] {
      hook::note_alloc(slab, sizeof(int));
      futrace::write_shared(*reinterpret_cast<int*>(slab), 1);
    });
  }
  // Freed outside any runtime: no emission context -> queued.
  hook::note_free(slab);
  EXPECT_EQ(hook::stats().deferred_retires, 1u);
  EXPECT_EQ(hook::live_blocks(), 0u);

  // The next instrumented allocation drains the queue before registering,
  // so the second run's detector sees the retire ahead of the reuse.
  detect::race_detector det2(detect::race_detector::options{});
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det2);
  rt.run([&] {
    hook::note_alloc(slab, sizeof(int));
    futrace::write_shared(*reinterpret_cast<int*>(slab), 2);
    hook::note_free(slab);
  });
  EXPECT_FALSE(det2.race_detected());
  EXPECT_EQ(hook::stats().blocks_registered, 2u);
  EXPECT_EQ(hook::stats().blocks_retired, 2u);
}

}  // namespace
}  // namespace futrace
