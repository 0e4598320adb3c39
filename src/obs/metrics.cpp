#include "futrace/obs/metrics.hpp"

#include <utility>

#include "futrace/obs/trace.hpp"

namespace futrace::obs {

// ------------------------------------------------------- metrics_snapshot

bool metrics_snapshot::has(std::string_view ns,
                           std::string_view key) const noexcept {
  for (const entry& e : entries_) {
    if (e.ns == ns && e.key == key) return true;
  }
  return false;
}

double metrics_snapshot::value(std::string_view ns,
                               std::string_view key) const noexcept {
  for (const entry& e : entries_) {
    if (e.ns == ns && e.key == key) return e.m.value;
  }
  return 0.0;
}

support::json metrics_snapshot::to_json() const {
  support::json doc = support::json::object();
  for (const entry& e : entries_) {
    doc[e.ns][e.key] = e.m.value;
  }
  return doc;
}

// -------------------------------------------------------- sharded_counter

unsigned sharded_counter::shard_hint() noexcept {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned mine =
      next.fetch_add(1, std::memory_order_relaxed);
  return mine;
}

// -------------------------------------------------------- metrics_registry

void metrics_registry::add_source(std::string name, source_fn fn) {
  for (source& s : sources_) {
    if (s.name == name) {
      s.fn = std::move(fn);
      return;
    }
  }
  sources_.push_back({std::move(name), std::move(fn)});
}

bool metrics_registry::remove_source(std::string_view name) {
  for (auto it = sources_.begin(); it != sources_.end(); ++it) {
    if (it->name == name) {
      sources_.erase(it);
      return true;
    }
  }
  return false;
}

sharded_counter& metrics_registry::owned_counter(std::string ns,
                                                 std::string key) {
  for (owned& o : owned_) {
    if (o.ns == ns && o.key == key) return *o.c;
  }
  owned_.push_back(
      {std::move(ns), std::move(key), std::make_unique<sharded_counter>()});
  return *owned_.back().c;
}

metrics_snapshot metrics_registry::snapshot() const {
  metrics_snapshot snap;
  for (const source& s : sources_) s.fn(snap);
  for (const owned& o : owned_) {
    snap.counter(o.ns, o.key, static_cast<double>(o.c->sum()));
  }
  return snap;
}

// ----------------------------------------------------------------- schema

bool is_paper_counter(std::string_view key) noexcept {
  for (const char* k : k_paper_counter_keys) {
    if (key == k) return true;
  }
  return false;
}

double direct_hit_rate(const detect::detector_counters& c) noexcept {
  const auto tracked = c.direct_hits + c.hashed_hits;
  return tracked ? static_cast<double>(c.direct_hits) / tracked : 0;
}

double memo_hit_rate(const detect::detector_counters& c) noexcept {
  return c.precede_queries
             ? static_cast<double>(c.memo_hits) / c.precede_queries
             : 0;
}

double stamp_hit_rate(const detect::detector_counters& c) noexcept {
  return c.shared_mem_accesses
             ? static_cast<double>(c.stamp_hits) / c.shared_mem_accesses
             : 0;
}

double range_hit_rate(const detect::detector_counters& c) noexcept {
  return c.shared_mem_accesses
             ? static_cast<double>(c.range_hits) / c.shared_mem_accesses
             : 0;
}

support::json counters_json(const detect::detector_counters& c) {
  support::json counters = support::json::object();
  counters["tasks"] = c.tasks;
  counters["non_tree_joins"] = c.non_tree_joins;
  counters["shared_mem_accesses"] = c.shared_mem_accesses;
  counters["reads"] = c.reads;
  counters["writes"] = c.writes;
  counters["locations"] = c.locations;
  counters["avg_readers"] = c.avg_readers;
  counters["races_observed"] = c.races_observed;
  counters["precede_queries"] = c.precede_queries;
  counters["direct_hits"] = c.direct_hits;
  counters["hashed_hits"] = c.hashed_hits;
  counters["memo_hits"] = c.memo_hits;
  counters["stamp_hits"] = c.stamp_hits;
  counters["range_events"] = c.range_events;
  counters["range_hits"] = c.range_hits;
  counters["summary_hits"] = c.summary_hits;
  counters["degradation_reasons"] =
      static_cast<std::uint64_t>(c.degradation_reasons);
  counters["reports_capped"] = c.reports_capped;
  counters["epoch_resets"] = c.epoch_resets;
  counters["suppressed_races"] = c.suppressed_races;
  counters["errors_throttled"] = c.errors_throttled;
  return counters;
}

support::json rates_json(const detect::detector_counters& c) {
  support::json rates = support::json::object();
  rates["direct_hit_rate"] = direct_hit_rate(c);
  rates["memo_hit_rate"] = memo_hit_rate(c);
  rates["stamp_hit_rate"] = stamp_hit_rate(c);
  rates["range_hit_rate"] = range_hit_rate(c);
  return rates;
}

support::json pipe_json(const detect::pipeline_stats& p) {
  support::json pipe = support::json::object();
  pipe["workers"] = p.workers;
  pipe["ring_capacity"] = p.ring_capacity;
  pipe["pipe_events"] = p.events;
  pipe["inline_fallbacks"] = p.inline_fallbacks;
  pipe["workers_died"] = p.workers_died;
  pipe["occupancy_pct"] = p.occupancy_pct();
  pipe["backpressure_waits"] = p.backpressure_waits;
  // Shared-structure mode (parallel_pipeline --structure=shared); zero
  // elsewhere. Load-dependent, classified advisory_load by bench_diff.
  pipe["structure_admit_lag_max"] = p.structure_admit_lag_max;
  pipe["checker_wait_spins"] = p.checker_wait_spins;
  pipe["shared_graph_bytes"] = p.shared_graph_bytes;
  return pipe;
}

// -------------------------------------------------------- engine adapters

namespace {

void fill_from_json(metrics_snapshot& snap, const std::string& ns,
                    const support::json& obj) {
  for (const support::json::member& m : obj.members()) {
    snap.gauge(ns, m.first, m.second.as_double());
  }
}

}  // namespace

void add_detector_source(metrics_registry& reg,
                         std::function<detect::detector_counters()> get) {
  reg.add_source("detector", [get = std::move(get)](metrics_snapshot& snap) {
    const detect::detector_counters c = get();
    fill_from_json(snap, "counters", counters_json(c));
    fill_from_json(snap, "rates", rates_json(c));
  });
}

void add_pipeline_source(metrics_registry& reg,
                         std::function<detect::pipeline_stats()> get) {
  reg.add_source("pipeline", [get = std::move(get)](metrics_snapshot& snap) {
    fill_from_json(snap, "pipe", pipe_json(get()));
  });
}

void add_shadow_source(metrics_registry& reg,
                       std::function<detect::shadow_stats()> get) {
  reg.add_source("shadow", [get = std::move(get)](metrics_snapshot& snap) {
    const detect::shadow_stats s = get();
    snap.counter("shadow", "direct_hits", static_cast<double>(s.direct_hits));
    snap.counter("shadow", "hashed_hits", static_cast<double>(s.hashed_hits));
    snap.counter("shadow", "mru_hits", static_cast<double>(s.mru_hits));
    snap.counter("shadow", "slabs_built", static_cast<double>(s.slabs_built));
    snap.counter("shadow", "slab_fallbacks",
                 static_cast<double>(s.slab_fallbacks));
    snap.counter("shadow", "rejected_overlaps",
                 static_cast<double>(s.rejected_overlaps));
    snap.counter("shadow", "migrated_cells",
                 static_cast<double>(s.migrated_cells));
    snap.counter("shadow", "migration_scans",
                 static_cast<double>(s.migration_scans));
    snap.counter("shadow", "summaries_established",
                 static_cast<double>(s.summaries_established));
    snap.counter("shadow", "summary_materializations",
                 static_cast<double>(s.summary_materializations));
  });
}

void add_reachability_source(metrics_registry& reg,
                             std::function<dsr::reachability_stats()> get) {
  reg.add_source("dsr", [get = std::move(get)](metrics_snapshot& snap) {
    const dsr::reachability_stats s = get();
    snap.counter("dsr", "tasks_created",
                 static_cast<double>(s.tasks_created));
    snap.counter("dsr", "tree_joins", static_cast<double>(s.tree_joins));
    snap.counter("dsr", "non_tree_joins",
                 static_cast<double>(s.non_tree_joins));
    snap.counter("dsr", "precede_queries",
                 static_cast<double>(s.precede_queries));
    snap.counter("dsr", "visit_steps", static_cast<double>(s.visit_steps));
    snap.counter("dsr", "nt_edges_walked",
                 static_cast<double>(s.nt_edges_walked));
    snap.counter("dsr", "lsa_hops", static_cast<double>(s.lsa_hops));
    snap.counter("dsr", "memo_hits", static_cast<double>(s.memo_hits));
    snap.counter("dsr", "memo_invalidations",
                 static_cast<double>(s.memo_invalidations));
    // PRECEDE-backend comparison counters (precede_backend.hpp).
    snap.counter("dsr", "label_bytes", static_cast<double>(s.label_bytes));
    snap.counter("dsr", "label_comparisons",
                 static_cast<double>(s.label_comparisons));
    snap.counter("dsr", "max_label_len",
                 static_cast<double>(s.max_label_len));
    snap.counter("dsr", "frontier_searches",
                 static_cast<double>(s.frontier_searches));
  });
}

void add_fault_source(metrics_registry& reg,
                      std::function<inject::fault_injector::counters()> get) {
  reg.add_source("fault", [get = std::move(get)](metrics_snapshot& snap) {
    const inject::fault_injector::counters c = get();
    snap.counter("fault", "spawn_sites", static_cast<double>(c.spawn_sites));
    snap.counter("fault", "get_sites", static_cast<double>(c.get_sites));
    snap.counter("fault", "put_sites", static_cast<double>(c.put_sites));
    snap.counter("fault", "alloc_gates", static_cast<double>(c.alloc_gates));
    snap.counter("fault", "thrown_spawn",
                 static_cast<double>(c.thrown_spawn));
    snap.counter("fault", "thrown_get", static_cast<double>(c.thrown_get));
    snap.counter("fault", "thrown_put", static_cast<double>(c.thrown_put));
    snap.counter("fault", "epoch_reset_sites",
                 static_cast<double>(c.epoch_reset_sites));
    snap.counter("fault", "thrown_epoch_reset",
                 static_cast<double>(c.thrown_epoch_reset));
    snap.counter("fault", "dropped_puts",
                 static_cast<double>(c.dropped_puts));
    snap.counter("fault", "failed_allocs",
                 static_cast<double>(c.failed_allocs));
    snap.counter("fault", "forced_yields",
                 static_cast<double>(c.forced_yields));
    snap.counter("fault", "perturbed_steals",
                 static_cast<double>(c.perturbed_steals));
    snap.counter("fault", "pipe_stalls", static_cast<double>(c.pipe_stalls));
    snap.counter("fault", "pipe_kills", static_cast<double>(c.pipe_kills));
    snap.counter("fault", "pipe_forced_fulls",
                 static_cast<double>(c.pipe_forced_fulls));
    snap.counter("fault", "faults_fired",
                 static_cast<double>(c.faults_fired()));
  });
}

void add_heap_source(metrics_registry& reg,
                     std::function<hook::heap_stats()> get_stats,
                     std::function<std::size_t()> get_live) {
  reg.add_source("heap", [gs = std::move(get_stats),
                          gl = std::move(get_live)](metrics_snapshot& snap) {
    const hook::heap_stats s = gs();
    snap.counter("heap", "blocks_registered",
                 static_cast<double>(s.blocks_registered));
    snap.counter("heap", "blocks_retired",
                 static_cast<double>(s.blocks_retired));
    snap.counter("heap", "hooked_bytes",
                 static_cast<double>(s.hooked_bytes));
    snap.counter("heap", "annotate_regions",
                 static_cast<double>(s.annotate_regions));
    snap.counter("heap", "foreign_frees",
                 static_cast<double>(s.foreign_frees));
    snap.counter("heap", "deferred_retires",
                 static_cast<double>(s.deferred_retires));
    snap.gauge("heap", "live_blocks", static_cast<double>(gl()));
  });
}

void add_trace_source(metrics_registry& reg, const trace_session& session) {
  const trace_session* s = &session;
  reg.add_source("trace", [s](metrics_snapshot& snap) {
    snap.counter("trace", "recorded_events",
                 static_cast<double>(s->recorded()));
    snap.counter("trace", "dropped_events",
                 static_cast<double>(s->dropped()));
    snap.gauge("trace", "capacity",
               static_cast<double>(s->buffer().capacity()));
  });
}

}  // namespace futrace::obs
