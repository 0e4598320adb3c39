#pragma once

/// \file metrics.hpp
/// Central, namespaced metrics registry: one place every engine registers
/// its counters/gauges into (detector, shadow tiers, reachability graph,
/// pipeline rings/workers, fault injector, trace emitter), and one JSON
/// schema every consumer reads (table2 / vs_baselines / ablation_ntjoins
/// rows, `tools/bench_diff`, `tools/fault_soak`).
///
/// Two registration styles:
///  - *sources*: pull-model callbacks sampled at snapshot() time. Engines
///    keep their cheap single-writer struct counters on the hot path; the
///    registry flattens them into "namespace/key" entries on demand. The
///    `add_*_source` adapters below define the canonical key set per
///    engine — the same keys, in the same order, as the checked-in
///    BENCH_*.json baselines, so registry snapshots and bench rows are
///    bit-identical.
///  - *owned counters*: lock-free sharded counters for metrics produced by
///    concurrent writers with no natural owner (e.g. trace drops). Adds
///    touch one cache-line-private shard; snapshot() sums the shards.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "futrace/detect/pipeline.hpp"
#include "futrace/detect/race_detector.hpp"
#include "futrace/detect/shadow_memory.hpp"
#include "futrace/dsr/reachability_graph.hpp"
#include "futrace/hook/heap_hooks.hpp"
#include "futrace/inject/fault_injector.hpp"
#include "futrace/support/json.hpp"

namespace futrace::obs {

class trace_session;

/// One named scalar in a snapshot. Counters are monotonic sums; gauges are
/// instantaneous values (rates, percentages, booleans-as-0/1).
struct metric {
  enum class kind : std::uint8_t { counter, gauge };
  double value = 0.0;
  kind k = kind::counter;
};

/// A flattened, insertion-ordered view of every registered metric, keyed by
/// (namespace, key). to_json() nests namespaces into sub-objects — exactly
/// the layout the bench rows and bench_diff consume.
class metrics_snapshot {
 public:
  struct entry {
    std::string ns;
    std::string key;
    metric m;
  };

  void counter(std::string ns, std::string key, double v) {
    entries_.push_back({std::move(ns), std::move(key),
                        metric{v, metric::kind::counter}});
  }
  void gauge(std::string ns, std::string key, double v) {
    entries_.push_back(
        {std::move(ns), std::move(key), metric{v, metric::kind::gauge}});
  }

  const std::vector<entry>& entries() const noexcept { return entries_; }

  bool has(std::string_view ns, std::string_view key) const noexcept;
  /// The metric's value, or 0.0 when absent (pair with has() when 0 is a
  /// meaningful reading).
  double value(std::string_view ns, std::string_view key) const noexcept;

  /// {"ns": {"key": value, ...}, ...} in registration order.
  support::json to_json() const;

 private:
  std::vector<entry> entries_;
};

/// Lock-free counter for concurrent producers: adds touch a per-thread
/// shard (cache-line padded), sum() folds the shards. Wait-free on the add
/// path; sum is a racy-but-monotonic read, exact once writers quiesce.
class sharded_counter {
 public:
  static constexpr unsigned k_shards = 16;

  void add(std::uint64_t n = 1) noexcept {
    shards_[shard_hint() % k_shards].v.fetch_add(n,
                                                 std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    std::uint64_t total = 0;
    for (const shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Stable per-thread shard index (thread-local, assigned on first use).
  static unsigned shard_hint() noexcept;

 private:
  struct alignas(64) shard {
    std::atomic<std::uint64_t> v{0};
  };
  shard shards_[k_shards];
};

class metrics_registry {
 public:
  using source_fn = std::function<void(metrics_snapshot&)>;

  /// Registers (or replaces) the pull source `name`. The callback runs on
  /// every snapshot(); it must outlive the registry or be removed first.
  void add_source(std::string name, source_fn fn);
  bool remove_source(std::string_view name);
  std::size_t source_count() const noexcept { return sources_.size(); }

  /// An owned sharded counter reported as `ns`/`key` in every snapshot.
  /// Stable address for the registry's lifetime.
  sharded_counter& owned_counter(std::string ns, std::string key);

  metrics_snapshot snapshot() const;
  support::json to_json() const { return snapshot().to_json(); }

 private:
  struct source {
    std::string name;
    source_fn fn;
  };
  struct owned {
    std::string ns;
    std::string key;
    std::unique_ptr<sharded_counter> c;
  };
  std::vector<source> sources_;
  std::vector<owned> owned_;
};

// ---------------------------------------------------------------- schema

/// The paper's Table-2 counters: every metrics schema must carry them
/// (bench_diff gates on a missing one), and — minus the query/hit
/// diagnostics, which legitimately vary with the engine tier — they are
/// exact across inline / fastpath / pipelined runs.
inline constexpr const char* k_paper_counter_keys[] = {
    "tasks",     "non_tree_joins", "shared_mem_accesses",
    "reads",     "writes",         "locations",
    "avg_readers", "races_observed", "precede_queries",
};

bool is_paper_counter(std::string_view key) noexcept;

// Fast-path hit rates (DESIGN.md §9); shared by the table renderer, the
// bench JSON emitters, and the registry source so the numbers agree.
double direct_hit_rate(const detect::detector_counters& c) noexcept;
double memo_hit_rate(const detect::detector_counters& c) noexcept;
double stamp_hit_rate(const detect::detector_counters& c) noexcept;
double range_hit_rate(const detect::detector_counters& c) noexcept;

/// Exact Table-2 row sub-objects — the canonical "counters" / "rates" /
/// "pipe" schema (same keys, same order, same values as the checked-in
/// bench baselines).
support::json counters_json(const detect::detector_counters& c);
support::json rates_json(const detect::detector_counters& c);
support::json pipe_json(const detect::pipeline_stats& p);

// ------------------------------------------------------- engine adapters
// Pull-source registration helpers. Each getter is copied into the
// registry and sampled at snapshot() time.

void add_detector_source(metrics_registry& reg,
                         std::function<detect::detector_counters()> get);
void add_shadow_source(metrics_registry& reg,
                       std::function<detect::shadow_stats()> get);
void add_reachability_source(metrics_registry& reg,
                             std::function<dsr::reachability_stats()> get);
void add_fault_source(metrics_registry& reg,
                      std::function<inject::fault_injector::counters()> get);
/// Samples the heap-instrumentation layer (ns "heap"): registration /
/// retire counters plus the live-block gauge. Getters keep this library
/// header-only toward futrace::hooks — pass `futrace::hook::stats` and
/// `futrace::hook::live_blocks` from a target that links it.
void add_heap_source(metrics_registry& reg,
                     std::function<hook::heap_stats()> get_stats,
                     std::function<std::size_t()> get_live);
/// Samples recorded/dropped of a live trace session (ns "trace"). The
/// session must outlive the registry or be removed ("trace") first.
void add_trace_source(metrics_registry& reg, const trace_session& session);

}  // namespace futrace::obs
