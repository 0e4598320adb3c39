// Differential tests for the pluggable PRECEDE backends
// (dsr::precede_backend): with --precede-backend in {graph, depa} the same
// program must produce identical verdicts, identical report sequences, and
// identical paper-level counters — a backend is a query-acceleration change,
// never a semantic one. The sweep crosses both backends with the detector's
// execution modes (fastpath on, fastpath off, pipelined, epoch-compacting)
// over generated programs in range-heavy and promise-bearing shapes, since
// promise-put continuation splits are exactly where a naive label scheme
// diverges from the paper's graph.
//
// Plus the DePa fork-path label store's own mechanics against hand-derived
// labels: ordinal assignment, prefix queries, varint boundaries, and the
// compaction rebuild.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "futrace/detect/pipeline.hpp"
#include "futrace/detect/race_detector.hpp"
#include "futrace/dsr/depa_labels.hpp"
#include "futrace/dsr/precede_backend.hpp"
#include "futrace/progen/random_program.hpp"
#include "futrace/runtime/runtime.hpp"
#include "futrace/runtime/shared.hpp"

namespace futrace {
namespace {

using detect::pipelined_detector;
using detect::race_detector;

constexpr dsr::backend_kind k_backends[] = {dsr::backend_kind::graph,
                                            dsr::backend_kind::depa};

// --------------------------------------------------------------- harness

/// Address-free fingerprint of one race report (locations are only
/// comparable when runs share the arrays, which the sweeps arrange too).
struct report_sig {
  detect::race_kind kind;
  task_id first_task;
  task_id second_task;
  std::string first_file;
  std::uint32_t first_line;
  std::string second_file;
  std::uint32_t second_line;

  bool operator==(const report_sig&) const = default;
};

std::vector<report_sig> signatures(const std::vector<detect::race_report>& r) {
  std::vector<report_sig> sigs;
  sigs.reserve(r.size());
  for (const detect::race_report& rep : r) {
    sigs.push_back(report_sig{rep.kind, rep.first_task, rep.second_task,
                              rep.first_site.file, rep.first_site.line,
                              rep.second_site.file, rep.second_site.line});
  }
  return sigs;
}

/// Everything a backend must reproduce bit-identically: the paper counters
/// of Table 2 *plus* the query count (the base class counts it identically
/// by construction — this pins that construction). Engine-tier diagnostics
/// (memo/visit/lsa) legitimately differ per backend and are excluded.
void expect_paper_counters_equal(const detect::detector_counters& a,
                                 const detect::detector_counters& b,
                                 const std::string& label) {
  EXPECT_EQ(a.tasks, b.tasks) << label;
  EXPECT_EQ(a.async_tasks, b.async_tasks) << label;
  EXPECT_EQ(a.future_tasks, b.future_tasks) << label;
  EXPECT_EQ(a.continuation_tasks, b.continuation_tasks) << label;
  EXPECT_EQ(a.promise_puts, b.promise_puts) << label;
  EXPECT_EQ(a.get_operations, b.get_operations) << label;
  EXPECT_EQ(a.non_tree_joins, b.non_tree_joins) << label;
  EXPECT_EQ(a.shared_mem_accesses, b.shared_mem_accesses) << label;
  EXPECT_EQ(a.reads, b.reads) << label;
  EXPECT_EQ(a.writes, b.writes) << label;
  EXPECT_EQ(a.locations, b.locations) << label;
  EXPECT_EQ(a.races_observed, b.races_observed) << label;
  EXPECT_EQ(a.racy_locations, b.racy_locations) << label;
  EXPECT_EQ(a.max_readers, b.max_readers) << label;
  EXPECT_DOUBLE_EQ(a.avg_readers, b.avg_readers) << label;
  EXPECT_EQ(a.degraded, b.degraded) << label;
  EXPECT_EQ(a.precede_queries, b.precede_queries) << label;
  EXPECT_EQ(a.epoch_resets, b.epoch_resets) << label;
}

struct run_outcome {
  std::uint64_t races = 0;
  std::vector<const void*> racy_locations;
  std::vector<report_sig> sigs;
  std::vector<const void*> report_locations;
  detect::detector_counters counters;
};

template <typename Body>
run_outcome run_serial(race_detector::options opts, Body&& body) {
  race_detector det(opts);
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run(body);
  run_outcome out;
  out.races = det.race_count();
  out.racy_locations = det.racy_locations();
  out.sigs = signatures(det.reports());
  for (const detect::race_report& r : det.reports()) {
    out.report_locations.push_back(r.location);
  }
  out.counters = det.counters();
  return out;
}

template <typename Body>
run_outcome run_piped(race_detector::options opts, Body&& body) {
  pipelined_detector det(opts);
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run(body);
  run_outcome out;
  out.races = det.race_count();
  out.racy_locations = det.racy_locations();
  out.sigs = signatures(det.reports());
  for (const detect::race_report& r : det.reports()) {
    out.report_locations.push_back(r.location);
  }
  out.counters = det.counters();
  return out;
}

void expect_same_outcome(const run_outcome& a, const run_outcome& b,
                         const std::string& label) {
  EXPECT_EQ(a.races, b.races) << label;
  EXPECT_EQ(a.racy_locations, b.racy_locations) << label;
  EXPECT_EQ(a.sigs, b.sigs) << label;
  EXPECT_EQ(a.report_locations, b.report_locations) << label;
  expect_paper_counters_equal(a.counters, b.counters, label);
}

/// One progen seed under every mode, the depa backend compared against the
/// graph backend in the same mode. The program object is reused across runs
/// so racy-location addresses stay comparable.
void sweep_seed(progen::progen_config cfg, const char* shape) {
  progen::random_program prog(cfg);
  auto body = [&prog] { prog(); };

  struct mode {
    const char* name;
    bool fastpath;
    unsigned threads;
    std::size_t epoch_interval;
  };
  const mode modes[] = {
      {"fastpath", true, 0, 0},
      {"no-fastpath", false, 0, 0},
      {"pipelined", true, 2, 0},
      {"epochs", true, 0, 64},
  };

  for (const mode& m : modes) {
    race_detector::options opts;
    opts.enable_fastpath = m.fastpath;
    opts.detect_threads = m.threads;
    opts.epoch_reset_interval = m.epoch_interval;

    opts.precede_backend = dsr::backend_kind::graph;
    const run_outcome reference = m.threads > 0 ? run_piped(opts, body)
                                                : run_serial(opts, body);
    opts.precede_backend = dsr::backend_kind::depa;
    const run_outcome candidate = m.threads > 0 ? run_piped(opts, body)
                                                : run_serial(opts, body);
    const std::string label = std::string(shape) + " seed " +
                              std::to_string(cfg.seed) + " " + m.name +
                              " depa vs graph";
    expect_same_outcome(candidate, reference, label);
  }
}

// ------------------------------------------------------ progen seed sweeps

TEST(BackendDifferential, RangeHeavyShapes) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    progen::progen_config cfg;
    cfg.seed = seed;
    cfg.w_range_read = 4.0;
    cfg.w_range_write = 3.0;
    cfg.w_get = 2.5;
    cfg.max_range_len = 6;
    sweep_seed(cfg, "range-heavy");
  }
}

TEST(BackendDifferential, PromiseBearingShapes) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    progen::progen_config cfg;
    cfg.seed = seed;
    cfg.w_promise = 2.0;
    cfg.w_put = 2.5;
    cfg.w_promise_get = 2.5;
    cfg.w_future = 2.0;
    cfg.w_get = 2.5;
    sweep_seed(cfg, "promise-bearing");
  }
}

TEST(BackendDifferential, UnsafeHandleFlows) {
  // Racy handle flows degrade the per-location guarantee identically for
  // every backend (the graph is still the one structural oracle), so the
  // differential must hold here too.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    progen::progen_config cfg;
    cfg.seed = seed;
    cfg.safe_handles = false;
    cfg.w_promise = 1.5;
    cfg.w_put = 1.5;
    sweep_seed(cfg, "unsafe-handles");
  }
}

// --------------------------------------------------- memo-after-union pin

/// The graph's rep-keyed memo caches positives for the executing task and
/// is invalidated by every set union and non-tree edge insertion; under the
/// depa backend it serves the queries that fall back to the graph search.
/// This program caches a positive, then forces unions (finish joins, future
/// gets), then re-queries — under both backends the answer must still be
/// "ordered", and no phantom race may appear.
TEST(BackendMemo, HitsStayCorrectAfterUnions) {
  for (const dsr::backend_kind backend : k_backends) {
    shared_array<int> cells(4, 0);
    race_detector::options opts;
    opts.precede_backend = backend;
    race_detector det(opts);
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(&det);
    rt.run([&] {
      future<void> producer = async_future([&] { cells.write(0, 1); });
      producer.get();
      (void)cells.read(0);  // query producer => main: cached positive
      // Unions: a finish block merges children into the main set, and a
      // second future chain adds a non-tree edge.
      finish([&] {
        async([&] { cells.write(1, 2); });
        async([&] { cells.write(2, 3); });
      });
      future<void> late = async_future([&] { (void)cells.read(0); });
      late.get();
      // Re-query the original producer ordering after all the unions: the
      // memo was invalidated, and the fresh answer must stay "ordered".
      (void)cells.read(0);
      cells.write(0, 4);
    });
    EXPECT_EQ(det.race_count(), 0u)
        << "backend " << dsr::backend_kind_name(backend);
  }
}

TEST(BackendMemo, RacesStillDetectedWithMemoWarm) {
  // The graph's memo only caches positives; a racy pair after a warm
  // positive on the same querying task must still be reported — identically
  // under both backends.
  std::vector<std::uint64_t> races;
  for (const dsr::backend_kind backend : k_backends) {
    shared_array<int> cells(2, 0);
    race_detector::options opts;
    opts.precede_backend = backend;
    race_detector det(opts);
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(&det);
    rt.run([&] {
      future<void> ordered = async_future([&] { cells.write(0, 1); });
      ordered.get();
      (void)cells.read(0);  // warm positive for (ordered => main)
      // Unjoined sibling: its write races with the main task's read.
      async([&] { cells.write(1, 7); });
      (void)cells.read(1);
    });
    races.push_back(det.race_count());
  }
  EXPECT_EQ(races[0], races[1]);
  EXPECT_GT(races[0], 0u);
}

TEST(BackendMemo, CompactionInvalidatesStaleEntries) {
  // Epoch compaction renumbers runtime ids, so memo entries keyed on the
  // prior epoch's reps — and depa's labels and overlay — must not answer
  // for reborn ids. A long root-level chain with a tiny reset interval
  // exercises several compactions under both backends; the verdict and the
  // compaction count must match the graph's.
  run_outcome reference;
  for (const dsr::backend_kind backend : k_backends) {
    shared_array<int> cells(8, 0);
    race_detector::options opts;
    opts.precede_backend = backend;
    opts.epoch_reset_interval = 16;
    race_detector det(opts);
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(&det);
    rt.run([&] {
      for (int round = 0; round < 200; ++round) {
        future<void> f = async_future(
            [&cells, round] { cells.write(round % 8, round); });
        f.get();
        (void)cells.read(round % 8);
      }
    });
    EXPECT_EQ(det.race_count(), 0u)
        << "backend " << dsr::backend_kind_name(backend);
    EXPECT_GT(det.epoch_resets(), 0u)
        << "backend " << dsr::backend_kind_name(backend);
    if (backend == dsr::backend_kind::graph) {
      reference.counters = det.counters();
    } else {
      expect_paper_counters_equal(det.counters(), reference.counters,
                                  dsr::backend_kind_name(backend));
    }
  }
}

// ------------------------------------------------------- backend parsing

TEST(BackendParse, AcceptsGraphAndDepaOnly) {
  dsr::backend_kind kind = dsr::backend_kind::depa;
  ASSERT_TRUE(dsr::parse_backend_kind("graph", &kind));
  EXPECT_EQ(kind, dsr::backend_kind::graph);
  ASSERT_TRUE(dsr::parse_backend_kind("depa", &kind));
  EXPECT_EQ(kind, dsr::backend_kind::depa);
  for (const char* rejected : {"vc", "vector_clock", ""}) {
    EXPECT_FALSE(dsr::parse_backend_kind(rejected, &kind)) << rejected;
    EXPECT_EQ(kind, dsr::backend_kind::depa) << "clobbered by " << rejected;
  }
}

// ------------------------------------------- DePa label store unit tests

/// Hand-derived fork-path labels for the canonical spawn tree
/// (DePa's labelling, Appendix-A style): the root is the empty path and the
/// k-th spawn of a task with path P is P·k.
TEST(DepaLabels, HandDerivedPaths) {
  dsr::depa_label_store store;
  store.add_root();        // 0: []
  store.add_child(0);      // 1: [0]
  store.add_child(0);      // 2: [1]
  store.add_child(1);      // 3: [0,0]
  store.add_child(1);      // 4: [0,1]
  store.add_child(3);      // 5: [0,0,0]
  store.add_child(0);      // 6: [2]

  EXPECT_EQ(store.components(0), (std::vector<std::uint32_t>{}));
  EXPECT_EQ(store.components(1), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(store.components(2), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(store.components(3), (std::vector<std::uint32_t>{0, 0}));
  EXPECT_EQ(store.components(4), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(store.components(5), (std::vector<std::uint32_t>{0, 0, 0}));
  EXPECT_EQ(store.components(6), (std::vector<std::uint32_t>{2}));

  EXPECT_EQ(store.depth(0), 0u);
  EXPECT_EQ(store.depth(5), 3u);

  // ancestor-or-self ⟺ byte prefix.
  EXPECT_TRUE(store.is_prefix(0, 5));   // root is everyone's ancestor
  EXPECT_TRUE(store.is_prefix(1, 3));
  EXPECT_TRUE(store.is_prefix(1, 5));
  EXPECT_TRUE(store.is_prefix(3, 5));
  EXPECT_TRUE(store.is_prefix(4, 4));   // self
  EXPECT_FALSE(store.is_prefix(2, 3));  // sibling subtree
  EXPECT_FALSE(store.is_prefix(3, 4));  // siblings
  EXPECT_FALSE(store.is_prefix(5, 3));  // descendant is not an ancestor
  EXPECT_FALSE(store.is_prefix(1, 2));
  EXPECT_FALSE(store.is_prefix(1, 6));
}

TEST(DepaLabels, VarintOrdinalsStayExact) {
  // Ordinal 200 needs two LEB128 bytes; prefix tests must stay exact at
  // the component boundary (no false prefix via a partial varint).
  dsr::depa_label_store store;
  store.add_root();
  for (int i = 0; i < 201; ++i) store.add_child(0);  // children [0]..[200]
  EXPECT_EQ(store.components(201), (std::vector<std::uint32_t>{200}));
  EXPECT_EQ(store.byte_length(201), 2u);
  EXPECT_EQ(store.byte_length(1), 1u);
  store.add_child(201);  // [200, 0]
  EXPECT_EQ(store.components(202), (std::vector<std::uint32_t>{200, 0}));
  EXPECT_TRUE(store.is_prefix(201, 202));
  // [128] shares its first byte with [128+k*128] encodings but must not be
  // a prefix of a different single-component path.
  EXPECT_FALSE(store.is_prefix(129, 130));  // [128] vs [129]
  EXPECT_FALSE(store.is_prefix(2, 202));    // [1] vs [200, 0]
}

TEST(DepaLabels, RebuildKeepsSurvivorsAndOrdinals) {
  dsr::depa_label_store store;
  store.add_root();    // 0: []
  store.add_child(0);  // 1: [0]
  store.add_child(0);  // 2: [1]
  store.add_child(2);  // 3: [1,0]

  // Compact away index 1; survivors {0, 2, 3} land at {0, 1, 2}, plus the
  // tombstone slot.
  store.rebuild({0, 2, 3, dsr::k_invalid_task});
  ASSERT_EQ(store.size(), 4u);
  EXPECT_EQ(store.components(0), (std::vector<std::uint32_t>{}));
  EXPECT_EQ(store.components(1), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(store.components(2), (std::vector<std::uint32_t>{1, 0}));
  EXPECT_TRUE(store.is_prefix(1, 2));
  EXPECT_FALSE(store.is_prefix(2, 1));

  // Ordinal counters survive: the root already spawned 2 children, so its
  // next child is [2], never a collision with the retired [0] or kept [1].
  store.add_child(0);
  EXPECT_EQ(store.components(4), (std::vector<std::uint32_t>{2}));
  // The kept task at new index 1 (old [1]) had one child; its next is
  // [1,1].
  store.add_child(1);
  EXPECT_EQ(store.components(5), (std::vector<std::uint32_t>{1, 1}));
}

}  // namespace
}  // namespace futrace
