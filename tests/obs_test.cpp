// Tests for the observability layer (futrace::obs): the metrics registry
// and its canonical bench schema, the sharded owned counters, and the
// Chrome-trace emitter — including a golden-file test that pins the trace
// JSON schema and a differential test that the paper counters reported
// through the registry are identical across the inline, no-fastpath, and
// pipelined engines.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "futrace/detect/parallel_pipeline.hpp"
#include "futrace/detect/pipeline.hpp"
#include "futrace/detect/race_detector.hpp"
#include "futrace/obs/metrics.hpp"
#include "futrace/obs/trace.hpp"
#include "futrace/runtime/runtime.hpp"
#include "futrace/support/json.hpp"

namespace futrace {
namespace {

using support::json;

// ------------------------------------------------------ metrics_snapshot

TEST(MetricsSnapshot, EntriesKeepInsertionOrderAndNest) {
  obs::metrics_snapshot snap;
  snap.counter("counters", "tasks", 5);
  snap.gauge("rates", "memo_hit_rate", 0.5);
  snap.counter("counters", "reads", 7);

  ASSERT_EQ(snap.entries().size(), 3u);
  EXPECT_TRUE(snap.has("counters", "tasks"));
  EXPECT_FALSE(snap.has("counters", "memo_hit_rate"));
  EXPECT_DOUBLE_EQ(snap.value("rates", "memo_hit_rate"), 0.5);
  EXPECT_DOUBLE_EQ(snap.value("absent", "key"), 0.0);

  const json doc = snap.to_json();
  ASSERT_NE(doc.find("counters"), nullptr);
  EXPECT_DOUBLE_EQ(doc.find("counters")->find("tasks")->as_double(), 5.0);
  EXPECT_DOUBLE_EQ(doc.find("counters")->find("reads")->as_double(), 7.0);
  EXPECT_DOUBLE_EQ(doc.find("rates")->find("memo_hit_rate")->as_double(),
                   0.5);
}

// ------------------------------------------------------ metrics_registry

TEST(MetricsRegistry, SourcesAddReplaceRemove) {
  obs::metrics_registry reg;
  obs::add_detector_source(reg, [] { return detect::detector_counters{}; });
  EXPECT_EQ(reg.source_count(), 1u);

  detect::detector_counters c;
  c.tasks = 42;
  // Same name replaces in place instead of double-reporting.
  obs::add_detector_source(reg, [c] { return c; });
  EXPECT_EQ(reg.source_count(), 1u);
  EXPECT_DOUBLE_EQ(reg.snapshot().value("counters", "tasks"), 42.0);

  EXPECT_TRUE(reg.remove_source("detector"));
  EXPECT_FALSE(reg.remove_source("detector"));
  EXPECT_TRUE(reg.snapshot().entries().empty());
}

TEST(MetricsRegistry, DetectorSourceCoversPaperCounters) {
  obs::metrics_registry reg;
  detect::detector_counters c;
  c.tasks = 3;
  c.reads = 10;
  c.writes = 4;
  obs::add_detector_source(reg, [c] { return c; });
  const obs::metrics_snapshot snap = reg.snapshot();
  for (const char* key : obs::k_paper_counter_keys) {
    EXPECT_TRUE(snap.has("counters", key)) << key;
    EXPECT_TRUE(obs::is_paper_counter(key)) << key;
  }
  EXPECT_FALSE(obs::is_paper_counter("memo_hits"));
  EXPECT_FALSE(obs::is_paper_counter("occupancy_pct"));
}

TEST(MetricsRegistry, OwnedCounterSumsConcurrentAdds) {
  obs::metrics_registry reg;
  obs::sharded_counter& dropped = reg.owned_counter("trace", "test_adds");
  // Same (ns, key) returns the same counter, not a second one.
  EXPECT_EQ(&dropped, &reg.owned_counter("trace", "test_adds"));

  constexpr int k_threads = 8;
  constexpr std::uint64_t k_adds = 20000;
  std::vector<std::thread> workers;
  workers.reserve(k_threads);
  for (int t = 0; t < k_threads; ++t) {
    workers.emplace_back([&dropped] {
      for (std::uint64_t i = 0; i < k_adds; ++i) dropped.add();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(dropped.sum(), k_threads * k_adds);
  EXPECT_DOUBLE_EQ(reg.snapshot().value("trace", "test_adds"),
                   static_cast<double>(k_threads * k_adds));
}

// --------------------------------------- engine-equality differential

// One mixed workload (async/finish/future structure, scalar + array
// traffic, one deliberate race) measured through three engine
// configurations. The paper counters — the numbers Table 2 reports — must
// be identical: fast paths and pipelining are implementation choices, not
// semantic ones. Engine-tier diagnostics (direct/memo/stamp hits)
// legitimately differ and are excluded.
void differential_workload() {
  shared_array<int> grid(64);
  shared<int> acc(0);
  finish([&] {
    for (int t = 0; t < 4; ++t) {
      async([&grid, t] {
        for (std::size_t i = 0; i < 16; ++i) {
          grid.write(static_cast<std::size_t>(t) * 16 + i, t);
        }
      });
    }
  });
  auto f = async_future([&grid] {
    int sum = 0;
    for (std::size_t i = 0; i < 64; ++i) sum += grid.read(i);
    return sum;
  });
  acc.write(f.get());
  async([&acc] { acc.write(9); });  // the deliberate race with the parent
  acc.write(1);
}

json counters_via_registry(const detect::detector_counters& c) {
  obs::metrics_registry reg;
  obs::add_detector_source(reg, [c] { return c; });
  return reg.snapshot().to_json();
}

TEST(MetricsDifferential, PaperCountersIdenticalAcrossEngines) {
  detect::detector_counters inline_c, nofast_c, piped_c;
  {
    detect::race_detector det;
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(&det);
    rt.run(differential_workload);
    inline_c = det.counters();
  }
  {
    detect::race_detector::options opts;
    opts.enable_fastpath = false;
    detect::race_detector det(opts);
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(&det);
    rt.run(differential_workload);
    nofast_c = det.counters();
  }
  {
    detect::race_detector::options opts;
    opts.detect_threads = 4;
    detect::pipelined_detector det(opts);
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(&det);
    rt.run(differential_workload);
    ASSERT_TRUE(det.pipelined());
    piped_c = det.counters();
  }

  const json a = counters_via_registry(inline_c);
  const json b = counters_via_registry(nofast_c);
  const json p = counters_via_registry(piped_c);
  const json* ac = a.find("counters");
  const json* bc = b.find("counters");
  const json* pc = p.find("counters");
  ASSERT_NE(ac, nullptr);
  for (const json::member& m : ac->members()) {
    if (!obs::is_paper_counter(m.first)) continue;
    EXPECT_DOUBLE_EQ(m.second.as_double(), bc->find(m.first)->as_double())
        << "no-fastpath diverges on " << m.first;
    EXPECT_DOUBLE_EQ(m.second.as_double(), pc->find(m.first)->as_double())
        << "pipelined diverges on " << m.first;
  }
  // The workload really exercised the interesting counters.
  EXPECT_GT(ac->find("races_observed")->as_double(), 0.0);
  EXPECT_GT(ac->find("precede_queries")->as_double(), 0.0);
}

// -------------------------------------------------------------- tracing

TEST(Trace, DisabledByDefaultAndEmitIsANoOp) {
  EXPECT_FALSE(obs::trace_enabled());
  obs::trace_emit(obs::trace_kind::get, obs::trace_track::task, 1, 2, 3);
  EXPECT_FALSE(obs::trace_enabled());
}

TEST(Trace, BufferDropsPastCapacityAndCounts) {
  obs::trace_session session("", /*capacity=*/4);
  ASSERT_TRUE(obs::trace_enabled());
  for (std::uint32_t i = 0; i < 10; ++i) {
    obs::trace_emit(obs::trace_kind::put, obs::trace_track::task, i);
  }
  EXPECT_EQ(session.recorded(), 4u);
  EXPECT_EQ(session.dropped(), 6u);

  const json doc = json::parse(session.to_json());
  const json* other = doc.find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_DOUBLE_EQ(other->find("recorded_events")->as_double(), 4.0);
  EXPECT_DOUBLE_EQ(other->find("dropped_events")->as_double(), 6.0);
}

TEST(Trace, SessionsNestInnermostCaptures) {
  obs::trace_session outer("", 16);
  obs::trace_emit(obs::trace_kind::put, obs::trace_track::task, 0);
  {
    obs::trace_session inner("", 16);
    obs::trace_emit(obs::trace_kind::put, obs::trace_track::task, 1);
    obs::trace_emit(obs::trace_kind::put, obs::trace_track::task, 2);
    EXPECT_EQ(inner.recorded(), 2u);
  }
  // Outer sink restored; its buffer never saw the inner events.
  ASSERT_TRUE(obs::trace_enabled());
  obs::trace_emit(obs::trace_kind::put, obs::trace_track::task, 3);
  EXPECT_EQ(outer.recorded(), 2u);
}

TEST(Trace, SessionRegistersAsMetricsSource) {
  obs::trace_session session("", 8);
  obs::trace_emit(obs::trace_kind::put, obs::trace_track::task, 0);
  obs::metrics_registry reg;
  obs::add_trace_source(reg, session);
  const obs::metrics_snapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.value("trace", "recorded_events"), 1.0);
  EXPECT_DOUBLE_EQ(snap.value("trace", "dropped_events"), 0.0);
  EXPECT_DOUBLE_EQ(snap.value("trace", "capacity"), 8.0);
}

// ------------------------------------------------------ golden-file test

/// The deterministic projection of a Chrome trace document: everything the
/// emitter writes except wall-clock timestamps, which are normalized to 0.
json project_trace(const json& doc) {
  json out = json::object();
  json events = json::array();
  const json* list = doc.find("traceEvents");
  if (list != nullptr) {
    for (std::size_t i = 0; i < list->size(); ++i) {
      const json& ev = list->at(i);
      json copy = json::object();
      for (const json::member& m : ev.members()) {
        if (m.first == "ts") {
          copy["ts"] = 0.0;
        } else {
          copy[m.first] = m.second;
        }
      }
      events.push_back(std::move(copy));
    }
  }
  out["traceEvents"] = std::move(events);
  if (const json* unit = doc.find("displayTimeUnit")) {
    out["displayTimeUnit"] = *unit;
  }
  if (const json* other = doc.find("otherData")) {
    out["otherData"] = *other;
  }
  return out;
}

/// The program behind tests/golden/trace_small.json: a finish over an
/// async writer, then a future read joined by the root. Race-free and
/// fully deterministic under serial depth-first execution.
void golden_program() {
  shared<int> x(0);
  finish([&] {
    async([&x] { x.write(1); });
  });
  auto f = async_future([&x] { return x.read(); });
  (void)f.get();
}

TEST(TraceGolden, SmallProgramMatchesCheckedInSchema) {
  const std::string path =
      testing::TempDir() + "futrace_trace_golden_test.json";
  {
    detect::race_detector::options opts;
    opts.trace_path = path;
    detect::race_detector det(opts);
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(&det);
    rt.run(golden_program);
    EXPECT_FALSE(det.race_detected());
  }  // detector destruction flushes the JSON

  std::ifstream in(path);
  ASSERT_TRUE(in) << "trace file not written: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const json produced = json::parse(buf.str());

  std::ifstream golden_in(std::string(FUTRACE_SOURCE_DIR) +
                          "/tests/golden/trace_small.json");
  ASSERT_TRUE(golden_in) << "missing tests/golden/trace_small.json";
  std::ostringstream golden_buf;
  golden_buf << golden_in.rdbuf();

  EXPECT_EQ(project_trace(produced).dump(1), golden_buf.str())
      << "trace schema drifted; regenerate tests/golden/trace_small.json "
         "if the change is intentional";
  std::remove(path.c_str());
}

TEST(TraceGolden, PipelinedTraceParsesAndClosesRootSlice) {
  const std::string path =
      testing::TempDir() + "futrace_trace_piped_test.json";
  shared_array<int> data(32);
  {
    detect::race_detector::options opts;
    opts.detect_threads = 2;
    opts.trace_path = path;
    detect::pipelined_detector det(opts);
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(&det);
    rt.run([&data] {
      finish([&data] {
        async([&data] {
          for (std::size_t i = 0; i < data.size(); ++i) data.write(i, 1);
        });
      });
    });
    ASSERT_TRUE(det.pipelined());
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "pipelined trace not written: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const json doc = json::parse(buf.str());

  // One authoritative runtime-event stream (workers are muted): every
  // task_begin ("B") has a matching end ("E"), root included.
  int begins = 0, ends = 0;
  const json* list = doc.find("traceEvents");
  ASSERT_NE(list, nullptr);
  for (std::size_t i = 0; i < list->size(); ++i) {
    const std::string& ph = list->at(i).find("ph")->as_string();
    if (ph == "B") ++begins;
    if (ph == "E") ++ends;
  }
  EXPECT_GT(begins, 0);
  EXPECT_EQ(begins, ends);
  std::remove(path.c_str());
}

TEST(TraceGolden, ParallelDetectTraceParsesAndClosesRootSlice) {
  // --trace in parallel-detect mode: the execution lanes come from the
  // producers (the engine workers), the inner detectors are trace-muted,
  // and the document must be valid golden-schema Chrome JSON.
  shared_array<int> data(32);
  const std::string path = testing::TempDir() + "futrace_trace_pardet.json";
  {
    detect::race_detector::options opts;
    opts.trace_path = path;
    detect::parallel_detector det(opts);
    runtime rt({.mode = exec_mode::parallel_detect, .workers = 2});
    rt.add_parallel_sink(&det);
    rt.run([&data] {
      finish([&data] {
        async([&data] {
          for (std::size_t i = 0; i < data.size(); ++i) data.write(i, 1);
        });
      });
    });
    ASSERT_TRUE(det.parallel_active());
    EXPECT_FALSE(det.race_detected());
  }  // detector destruction flushes the JSON
  std::ifstream in(path);
  ASSERT_TRUE(in) << "parallel-detect trace not written: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const json doc = json::parse(buf.str());

  // Producer lanes interleave across workers, but per task every
  // task_begin ("B") still pairs with a task end ("E"), root included.
  int begins = 0, ends = 0;
  const json* list = doc.find("traceEvents");
  ASSERT_NE(list, nullptr);
  for (std::size_t i = 0; i < list->size(); ++i) {
    const std::string& ph = list->at(i).find("ph")->as_string();
    if (ph == "B") ++begins;
    if (ph == "E") ++ends;
  }
  EXPECT_GT(begins, 0);
  EXPECT_EQ(begins, ends);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace futrace
