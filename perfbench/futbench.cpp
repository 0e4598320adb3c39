// futbench: one timed run of one futrace workload in one detection mode.
//
//   futbench --workload crypt|wavefront|strassen|service
//            --mode seq|inline|pipelined|pardetect|dfs_noop|parallel|
//                   traced_inline|traced_pipelined|traced_pardetect
//            --seed N
//
// prints a single JSON object on stdout: set-up time, time-to-verdict, the
// workload's self-check, the paper counters, peak RSS and, for the traced
// modes, the per-layer split. perfbench/run.py starts one process per run, so
// every run has its own RSS high-water mark and a run that hangs can be
// killed without losing the others.
//
// The traced modes time the library from outside: a forwarding
// execution_observer wraps race_detector / pipelined_detector, a forwarding
// parallel_sink wraps parallel_detector, the first verdict query is timed on
// its own, and the rest comes from each object's public stats accessors.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "futrace/detect/parallel_pipeline.hpp"
#include "futrace/detect/pipeline.hpp"
#include "futrace/detect/race_detector.hpp"
#include "futrace/progen/program_trace.hpp"
#include "futrace/runtime/runtime.hpp"
#include "futrace/support/flags.hpp"
#include "futrace/support/json.hpp"
#include "futrace/workloads/workloads.hpp"

namespace {

using namespace futrace;
using support::json;
using clock_type = std::chrono::steady_clock;

// Thread counts of the concurrent modes: the pipelined detector runs the
// program on one thread and checks on three; parallel-detect runs P = 2
// engine workers and W = 2 shard checkers. run.py refuses to start either
// when nproc is below their total.
constexpr unsigned k_pipeline_checkers = 3;
constexpr unsigned k_par_workers = 2;
constexpr unsigned k_par_checkers = 2;

// Workload sizes (README.md explains the choice).
constexpr std::size_t k_crypt_bytes = 262144 * 2;
constexpr std::size_t k_sw_dim = 1000;
constexpr std::size_t k_sw_tile = 50;
constexpr std::size_t k_strassen_n = 256;
constexpr std::size_t k_strassen_cutoff = 32;
constexpr std::size_t k_service_requests = 9000;
constexpr std::size_t k_service_racy_every = 8;
constexpr int k_service_progen_tasks = 120;
constexpr std::size_t k_service_epoch_reset = 1024;
constexpr std::size_t k_service_max_reports = 32;

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

std::uint64_t ns_since(clock_type::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock_type::now() -
                                                           t0)
          .count());
}

/// The process's resident-set high-water mark in KiB (VmHWM), 0 if unknown.
std::uint64_t peak_rss_kib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Workloads

struct workload {
  virtual ~workload() = default;
  virtual void operator()() = 0;
  virtual bool verify() const = 0;
  /// Whether a correct detector reports no race on this input.
  virtual bool race_free() const { return true; }
};

template <typename W, typename Config>
struct library_workload final : workload {
  explicit library_workload(const Config& config) : w(config) {}
  void operator()() override { w(); }
  bool verify() const override { return w.verify(); }
  W w;
};

/// A long-lived service, shaped like tools/serve_soak: the root task sends
/// requests back to back, each wrapped in finish { async { ... } } so the
/// detector is quiescent between requests. Every `racy_every`-th request is
/// serve_soak's fixed racy one (two unordered asyncs write cell 0); every
/// other one is a seeded progen program with promises off, frozen by
/// progen::program_trace so that it replays the same under every engine.
/// Its accesses to its own fresh shared variables may race as well.
class service_workload final : public workload {
 public:
  explicit service_workload(std::uint64_t seed) : seed_(seed) {}

  /// Inline runs pass the detector's race counter, so every racy request
  /// is checked to raise exactly one race.
  void check_races_with(std::function<std::uint64_t()> count) {
    race_count_ = std::move(count);
  }

  void operator()() override {
    shared_array<int> racy_cell(1);
    latency_us_.clear();
    latency_us_.reserve(k_service_requests);
    racy_requests_ = 0;
    for (std::size_t r = 0; r < k_service_requests; ++r) {
      if (r % k_service_racy_every == k_service_racy_every - 1) {
        const std::uint64_t before = race_count_ ? race_count_() : 0;
        const auto t0 = clock_type::now();
        finish([&racy_cell] {
          async([&racy_cell] { racy_cell.write(0, 1); });
          async([&racy_cell] { racy_cell.write(0, 2); });
        });
        record_latency(t0);
        ++racy_requests_;
        if (race_count_ && race_count_() != before + 1) ++bad_requests_;
      } else {
        progen::trace_config tc;
        tc.seed = seed_ * 1000003u + r;
        tc.max_tasks = k_service_progen_tasks;
        tc.w_promise = 0.0;
        tc.w_put = 0.0;
        tc.w_promise_get = 0.0;
        progen::program_trace prog(tc);
        const auto t0 = clock_type::now();
        finish([&prog] { async([&prog] { prog(); }); });
        record_latency(t0);
      }
    }
  }

  bool race_free() const override { return false; }

  bool verify() const override {
    return bad_requests_ == 0 &&
           racy_requests_ == k_service_requests / k_service_racy_every;
  }

  /// Wall time of each request of the last run, in microseconds.
  const std::vector<float>& latencies_us() const noexcept {
    return latency_us_;
  }

 private:
  void record_latency(clock_type::time_point t0) {
    latency_us_.push_back(
        static_cast<float>(static_cast<double>(ns_since(t0)) * 1e-3));
  }

  std::uint64_t seed_;
  std::uint64_t racy_requests_ = 0;
  std::uint64_t bad_requests_ = 0;
  std::function<std::uint64_t()> race_count_;
  std::vector<float> latency_us_;
};

struct workload_setup {
  std::unique_ptr<workload> w;
  service_workload* service = nullptr;  // set for the service workload
  detect::race_detector::options opts;
};

workload_setup make_workload(const std::string& name, std::uint64_t seed) {
  using namespace futrace::workloads;
  workload_setup s;
  if (name == "crypt") {
    s.w = std::make_unique<library_workload<crypt_workload, crypt_config>>(
        crypt_config{.bytes = k_crypt_bytes, .seed = seed});
    s.opts.shadow_reserve = 3 * k_crypt_bytes;
  } else if (name == "wavefront") {
    s.w = std::make_unique<library_workload<sw_workload, sw_config>>(
        sw_config{.rows = k_sw_dim,
                  .cols = k_sw_dim,
                  .tile = k_sw_tile,
                  .seed = seed});
    s.opts.shadow_reserve = (k_sw_dim + 1) * (k_sw_dim + 1);
  } else if (name == "strassen") {
    s.w = std::make_unique<
        library_workload<strassen_workload, strassen_config>>(
        strassen_config{
            .n = k_strassen_n, .cutoff = k_strassen_cutoff, .seed = seed});
    s.opts.shadow_reserve = 3 * k_strassen_n * k_strassen_n;
  } else if (name == "service") {
    auto svc = std::make_unique<service_workload>(seed);
    s.service = svc.get();
    s.w = std::move(svc);
    s.opts.epoch_reset_interval = k_service_epoch_reset;
    s.opts.max_reports = k_service_max_reports;
    s.opts.shadow_reserve = std::size_t{1} << 16;
  }
  return s;
}

json sizes_json(const std::string& name) {
  json j = json::object();
  if (name == "crypt") {
    j["bytes"] = static_cast<std::uint64_t>(k_crypt_bytes);
    j["blocks_per_task"] = 1;
  } else if (name == "wavefront") {
    j["rows"] = static_cast<std::uint64_t>(k_sw_dim);
    j["cols"] = static_cast<std::uint64_t>(k_sw_dim);
    j["tile"] = static_cast<std::uint64_t>(k_sw_tile);
  } else if (name == "strassen") {
    j["n"] = static_cast<std::uint64_t>(k_strassen_n);
    j["cutoff"] = static_cast<std::uint64_t>(k_strassen_cutoff);
  } else {
    j["requests"] = static_cast<std::uint64_t>(k_service_requests);
    j["racy_every"] = static_cast<std::uint64_t>(k_service_racy_every);
    j["progen_tasks"] = static_cast<std::uint64_t>(k_service_progen_tasks);
    j["epoch_reset_interval"] =
        static_cast<std::uint64_t>(k_service_epoch_reset);
    j["max_reports"] = static_cast<std::uint64_t>(k_service_max_reports);
  }
  return j;
}

// ---------------------------------------------------------------------------
// Forwarding wrappers that time the library's public entry points

struct layer_time {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t max_ns = 0;

  template <typename F>
  void time(F&& f) {
    const auto t0 = clock_type::now();
    f();
    const std::uint64_t d = ns_since(t0);
    ns += d;
    ++calls;
    max_ns = std::max(max_ns, d);
  }
  double ms() const { return static_cast<double>(ns) * 1e-6; }
};

/// Forwards every event to `inner`, timing structure events (spawn, end,
/// finish, get, put), access events (scalar and range) and the program end
/// separately. The range events are forwarded as range events: the base
/// class would split them per element.
class timed_observer final : public execution_observer {
 public:
  explicit timed_observer(execution_observer& inner) : inner_(inner) {}

  layer_time structure;
  layer_time access;
  layer_time program_end;  // where the pipelined detector drains and joins
  std::uint64_t access_elems = 0;

  void on_program_start(task_id root) override {
    structure.time([&] { inner_.on_program_start(root); });
  }
  void on_task_spawn(task_id parent, task_id child, task_kind kind) override {
    structure.time([&] { inner_.on_task_spawn(parent, child, kind); });
  }
  void on_task_end(task_id t) override {
    structure.time([&] { inner_.on_task_end(t); });
  }
  void on_finish_start(task_id owner) override {
    structure.time([&] { inner_.on_finish_start(owner); });
  }
  void on_finish_end(task_id owner, std::span<const task_id> joined) override {
    structure.time([&] { inner_.on_finish_end(owner, joined); });
  }
  void on_get(task_id waiter, task_id target) override {
    structure.time([&] { inner_.on_get(waiter, target); });
  }
  void on_promise_put(task_id fulfiller) override {
    structure.time([&] { inner_.on_promise_put(fulfiller); });
  }
  void on_program_end() override {
    program_end.time([&] { inner_.on_program_end(); });
  }
  void on_read(task_id t, const void* addr, std::size_t size,
               access_site site) override {
    ++access_elems;
    access.time([&] { inner_.on_read(t, addr, size, site); });
  }
  void on_write(task_id t, const void* addr, std::size_t size,
                access_site site) override {
    ++access_elems;
    access.time([&] { inner_.on_write(t, addr, size, site); });
  }
  void on_read_range(task_id t, const void* addr, std::size_t count,
                     std::size_t stride, access_site site) override {
    access_elems += count;
    access.time([&] { inner_.on_read_range(t, addr, count, stride, site); });
  }
  void on_write_range(task_id t, const void* addr, std::size_t count,
                      std::size_t stride, access_site site) override {
    access_elems += count;
    access.time([&] { inner_.on_write_range(t, addr, count, stride, site); });
  }
  void on_region_retire(task_id t, const void* addr,
                        std::size_t bytes) override {
    inner_.on_region_retire(t, addr, bytes);
  }

 private:
  execution_observer& inner_;
};

/// Observes nothing, including the range events (the base class would
/// decompose those into per-element virtual calls): serial_dfs with this
/// attached costs only the runtime's own bookkeeping.
class noop_observer final : public execution_observer {
 public:
  void on_read_range(task_id, const void*, std::size_t, std::size_t,
                     access_site) override {}
  void on_write_range(task_id, const void*, std::size_t, std::size_t,
                      access_site) override {}
};

/// Forwards every emission to `inner`, timing the emit_* calls in one slot
/// per engine worker (each worker index is driven by one thread at a time).
/// begin, program_done and emit_region_retire pass through unchanged;
/// program_done runs on the main thread and is timed on its own.
class timed_sink final : public detail::parallel_sink {
 public:
  explicit timed_sink(detail::parallel_sink& inner) : inner_(inner) {}

  double emit_ms() const {
    std::uint64_t ns = 0;
    for (const slot& s : slots_) ns += s.t.ns;
    return static_cast<double>(ns) * 1e-6;
  }
  std::uint64_t emit_calls() const {
    std::uint64_t n = 0;
    for (const slot& s : slots_) n += s.t.calls;
    return n;
  }

  void begin(unsigned workers) override {
    slots_.assign(workers, slot{});
    inner_.begin(workers);
  }
  void emit_program_start(unsigned w, task_id root) override {
    slots_[w].t.time([&] { inner_.emit_program_start(w, root); });
  }
  void emit_spawn(unsigned w, task_id parent, task_id child,
                  task_kind kind) override {
    slots_[w].t.time([&] { inner_.emit_spawn(w, parent, child, kind); });
  }
  void emit_task_end(unsigned w, task_id t) override {
    slots_[w].t.time([&] { inner_.emit_task_end(w, t); });
  }
  void emit_finish_begin(unsigned w, task_id owner) override {
    slots_[w].t.time([&] { inner_.emit_finish_begin(w, owner); });
  }
  void emit_finish_end(unsigned w, task_id owner) override {
    slots_[w].t.time([&] { inner_.emit_finish_end(w, owner); });
  }
  void emit_get(unsigned w, task_id waiter, task_id producer,
                std::uint64_t put_ref) override {
    slots_[w].t.time([&] { inner_.emit_get(w, waiter, producer, put_ref); });
  }
  void emit_put(unsigned w, task_id fulfiller,
                std::uint64_t put_ref) override {
    slots_[w].t.time([&] { inner_.emit_put(w, fulfiller, put_ref); });
  }
  void emit_read(unsigned w, task_id t, const void* addr, std::size_t size,
                 access_site site) override {
    slots_[w].t.time([&] { inner_.emit_read(w, t, addr, size, site); });
  }
  void emit_write(unsigned w, task_id t, const void* addr, std::size_t size,
                  access_site site) override {
    slots_[w].t.time([&] { inner_.emit_write(w, t, addr, size, site); });
  }
  void emit_read_range(unsigned w, task_id t, const void* addr,
                       std::size_t count, std::size_t stride,
                       access_site site) override {
    slots_[w].t.time(
        [&] { inner_.emit_read_range(w, t, addr, count, stride, site); });
  }
  void emit_write_range(unsigned w, task_id t, const void* addr,
                        std::size_t count, std::size_t stride,
                        access_site site) override {
    slots_[w].t.time(
        [&] { inner_.emit_write_range(w, t, addr, count, stride, site); });
  }
  void emit_region_retire(unsigned w, task_id t, const void* addr,
                          std::size_t bytes) override {
    inner_.emit_region_retire(w, t, addr, bytes);
  }
  void program_done() override {
    done.time([&] { inner_.program_done(); });
  }

  layer_time done;  // main thread, after every worker joined

 private:
  struct alignas(64) slot {
    layer_time t;
  };
  detail::parallel_sink& inner_;
  std::vector<slot> slots_;
};

// ---------------------------------------------------------------------------
// One run

json paper_counters(const detect::detector_counters& c) {
  json j = json::object();
  j["tasks"] = c.tasks;
  j["non_tree_joins"] = c.non_tree_joins;
  j["shared_mem"] = c.shared_mem_accesses;
  j["races_observed"] = c.races_observed;
  j["precede_queries"] = c.precede_queries;
  return j;
}

/// Times run() plus the first verdict query (which drains and joins the
/// checkers in the concurrent modes) and records the verdict.
template <typename Detector>
void run_to_verdict(runtime& rt, workload& w, Detector& det, json& out) {
  const auto t0 = clock_type::now();
  rt.run([&] { w(); });
  const auto tv = clock_type::now();
  const std::uint64_t races = det.race_count();
  out["time_s"] = seconds_since(t0);
  out["verdict_ms"] = seconds_since(tv) * 1e3;
  out["races"] = races;
}

json run_mode(const std::string& name, const std::string& mode,
              std::uint64_t seed) {
  json out = json::object();
  out["workload"] = name;
  out["mode"] = mode;
  out["seed"] = seed;

  const auto t_setup = clock_type::now();
  workload_setup s = make_workload(name, seed);
  workload& w = *s.w;
  detect::race_detector::options opts = s.opts;
  json layers = json::object();

  if (mode == "seq" || mode == "dfs_noop" || mode == "parallel") {
    const exec_mode m = mode == "seq"        ? exec_mode::serial_elision
                        : mode == "dfs_noop" ? exec_mode::serial_dfs
                                             : exec_mode::parallel;
    noop_observer noop;
    runtime rt({.mode = m, .workers = k_par_workers});
    if (m == exec_mode::serial_dfs) rt.add_observer(&noop);
    out["setup_s"] = seconds_since(t_setup);
    const auto t0 = clock_type::now();
    rt.run([&] { w(); });
    out["time_s"] = seconds_since(t0);
    out["runtime_tasks"] = rt.tasks_spawned();
  } else if (mode == "inline" || mode == "traced_inline") {
    detect::race_detector det(opts);
    timed_observer traced(det);
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(mode == "inline" ? static_cast<execution_observer*>(&det)
                                     : &traced);
    if (s.service != nullptr) {
      s.service->check_races_with([&det] { return det.race_count(); });
    }
    out["setup_s"] = seconds_since(t_setup);
    run_to_verdict(rt, w, det, out);
    out["counters"] = paper_counters(det.counters());
    if (s.service != nullptr) {
      json lat = json::array();
      for (const float us : s.service->latencies_us()) {
        lat.push_back(static_cast<double>(us));
      }
      out["request_latency_us"] = lat;
    }
    if (mode == "traced_inline") {
      const detect::detector_counters c = det.counters();
      const detect::shadow_stats& sh = det.storage_stats();
      const dsr::reachability_stats rs = det.reachability_stats();
      layers["structure_ms"] = traced.structure.ms() + traced.program_end.ms();
      layers["structure_calls"] =
          traced.structure.calls + traced.program_end.calls;
      layers["structure_max_us"] =
          static_cast<double>(
              std::max(traced.structure.max_ns, traced.program_end.max_ns)) *
          1e-3;
      layers["access_ms"] = traced.access.ms();
      layers["access_calls"] = traced.access.calls;
      layers["access_elems"] = traced.access_elems;
      layers["memory_bytes"] = static_cast<std::uint64_t>(det.memory_bytes());
      layers["precede_queries"] = c.precede_queries;
      layers["memo_hits"] = c.memo_hits;
      layers["stamp_hits"] = c.stamp_hits;
      layers["direct_hits"] = c.direct_hits;
      layers["hashed_hits"] = c.hashed_hits;
      layers["range_hits"] = c.range_hits;
      layers["summary_hits"] = c.summary_hits;
      layers["races_observed"] = c.races_observed;
      layers["reports_capped"] = c.reports_capped;
      layers["epoch_resets"] = c.epoch_resets;
      layers["slabs_built"] = sh.slabs_built;
      layers["summaries_established"] = sh.summaries_established;
      layers["summary_materializations"] = sh.summary_materializations;
      layers["mru_hits"] = sh.mru_hits;
      layers["frontier_searches"] = rs.frontier_searches;
      layers["visit_steps"] = rs.visit_steps;
      layers["nt_edges_walked"] = rs.nt_edges_walked;
      layers["memo_invalidations"] = rs.memo_invalidations;
      layers["epoch_compactions"] = rs.epoch_compactions;
      layers["structure_bytes"] =
          static_cast<std::uint64_t>(det.structure_bytes());
    }
  } else if (mode == "pipelined" || mode == "traced_pipelined") {
    opts.detect_threads = k_pipeline_checkers;
    detect::pipelined_detector det(opts);
    timed_observer traced(det);
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(mode == "pipelined"
                        ? static_cast<execution_observer*>(&det)
                        : &traced);
    out["setup_s"] = seconds_since(t_setup);
    run_to_verdict(rt, w, det, out);
    out["counters"] = paper_counters(det.counters());
    if (mode == "traced_pipelined") {
      const detect::pipeline_stats& p = det.pipe_stats();
      layers["producer_ms"] = traced.structure.ms() + traced.access.ms();
      layers["program_end_ms"] = traced.program_end.ms();
      layers["events"] = p.events;
      layers["split_subevents"] = p.split_subevents;
      layers["backpressure_waits"] = p.backpressure_waits;
      layers["occupancy_pct"] = p.occupancy_pct();
      layers["inline_fallbacks"] = p.inline_fallbacks;
    }
  } else if (mode == "pardetect" || mode == "traced_pardetect") {
    detect::parallel_detector::tuning tune;
    tune.checkers = k_par_checkers;
    detect::parallel_detector det(opts, tune);
    timed_sink traced(det);
    runtime rt({.mode = exec_mode::parallel_detect, .workers = k_par_workers});
    rt.add_parallel_sink(mode == "pardetect"
                             ? static_cast<detail::parallel_sink*>(&det)
                             : &traced);
    out["setup_s"] = seconds_since(t_setup);
    run_to_verdict(rt, w, det, out);
    out["counters"] = paper_counters(det.counters());
    if (mode == "traced_pardetect") {
      const detect::pipeline_stats& p = det.pipe_stats();
      layers["emit_ms"] = traced.emit_ms();
      layers["program_done_ms"] = traced.done.ms();
      layers["emit_calls"] = traced.emit_calls();
      layers["backpressure_waits"] = p.backpressure_waits;
      layers["occupancy_pct"] = p.occupancy_pct();
      layers["structure_bytes"] =
          static_cast<std::uint64_t>(det.structure_bytes());
      layers["inline_fallbacks"] = p.inline_fallbacks;
    }
  }

  out["verified"] = w.verify();
  out["race_free"] = w.race_free();
  out["peak_rss_kib"] = peak_rss_kib();
  if (layers.size() != 0) out["layers"] = layers;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  support::flag_parser flags;
  flags.define("workload", "crypt", "crypt, wavefront, strassen or service")
      .define("mode", "inline",
              "seq, inline, pipelined, pardetect, dfs_noop, parallel, "
              "traced_inline, traced_pipelined or traced_pardetect")
      .define("seed", "1", "input seed")
      .define("provenance", "false",
              "print build, size and thread-count facts and exit");
  flags.parse(argc, argv);
  const std::string name = flags.get_string("workload");
  if (name != "crypt" && name != "wavefront" && name != "strassen" &&
      name != "service") {
    std::fprintf(stderr, "futbench: unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  const std::string mode = flags.get_string("mode");
  if (mode != "seq" && mode != "inline" && mode != "pipelined" &&
      mode != "pardetect" && mode != "dfs_noop" && mode != "parallel" &&
      mode != "traced_inline" && mode != "traced_pipelined" &&
      mode != "traced_pardetect") {
    std::fprintf(stderr, "futbench: unknown --mode '%s'\n", mode.c_str());
    return 2;
  }

  if (flags.get_bool("provenance")) {
    json p = json::object();
    p["build_type"] = FUTBENCH_BUILD_TYPE;
    p["compiler"] = FUTBENCH_COMPILER;
    p["sizes"] = sizes_json(name);
    p["pipelined_threads"] = static_cast<std::uint64_t>(1 + k_pipeline_checkers);
    p["pipelined_W"] = static_cast<std::uint64_t>(k_pipeline_checkers);
    p["pardetect_P"] = static_cast<std::uint64_t>(k_par_workers);
    p["pardetect_W"] = static_cast<std::uint64_t>(k_par_checkers);
    p["pardetect_threads"] =
        static_cast<std::uint64_t>(k_par_workers + k_par_checkers);
    std::printf("%s\n", p.dump(0).c_str());
    return 0;
  }

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  try {
    const json out = run_mode(name, mode, seed);
    std::printf("%s\n", out.dump(0).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "futbench: %s/%s seed %llu failed: %s\n",
                 name.c_str(), mode.c_str(),
                 static_cast<unsigned long long>(seed), e.what());
    return 3;
  }
}
