#pragma once

/// \file precede_backend.hpp
/// Pluggable PRECEDE query backends (options::precede_backend /
/// --precede-backend={graph,depa}).
///
/// Both backends share the paper's reachability graph as the structural
/// core — Algorithm 4's tree/non-tree join classification, the retirement
/// maps, and explain() provenance all live there, which is what keeps
/// verdicts, race reports, and the paper counters (#NTJoins,
/// PrecedeQueries) bit-identical across backends. What a backend owns is
/// the *answer path* of the hot PRECEDE(a, b) query:
///
///   graph — delegates to reachability_graph::precedes verbatim (interval
///           subsumption + bounded frontier/LSA search + rep-keyed memo).
///   depa  — DePa-style fork-path labels (depa_labels.hpp) answer live
///           spawn-ancestor queries in O(min-label-length), and a
///           join-frontier overlay — an anchored union-find over the
///           paper's non-tree future edges — answers transitively joined
///           chains in O(α); everything else falls back to the graph
///           search. Labels are maintained at spawn/finish/get/put (a put
///           splits the fulfiller into a continuation child, which is just
///           another spawn) and freed at epoch retirement.
///
/// The base class owns the query counter, so PrecedeQueries is counted
/// identically regardless of backend.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "futrace/dsr/reachability_graph.hpp"

namespace futrace::dsr {

enum class backend_kind : std::uint8_t { graph, depa };

inline const char* backend_kind_name(backend_kind k) noexcept {
  switch (k) {
    case backend_kind::graph:
      return "graph";
    case backend_kind::depa:
      return "depa";
  }
  return "?";
}

/// Parses "graph" / "depa". Returns false on anything else; *out is
/// untouched then.
bool parse_backend_kind(std::string_view name, backend_kind* out) noexcept;

class precede_backend {
 public:
  explicit precede_backend(reachability_graph& graph) : graph_(graph) {}
  virtual ~precede_backend() = default;

  precede_backend(const precede_backend&) = delete;
  precede_backend& operator=(const precede_backend&) = delete;

  virtual backend_kind kind() const noexcept = 0;

  // -- structural event hooks (called by the detector after the graph event)
  virtual void on_root_created(task_id root) { (void)root; }
  /// A promise-put continuation split arrives here as an ordinary spawn,
  /// but the graph does not order the (terminating) pre-split identity
  /// before its continuation until an explicit get edge appears, so a
  /// backend must not infer that ordering from this edge.
  virtual void on_task_created(task_id parent, task_id child) {
    (void)parent;
    (void)child;
  }
  /// After graph.on_get(waiter, target).
  virtual void on_get_joined(task_id waiter, task_id target) {
    (void)waiter;
    (void)target;
  }
  virtual void on_finish_joined(task_id owner, task_id joined) {
    (void)owner;
    (void)joined;
  }
  /// After a successful graph.try_compact(): retire dead labels and re-key
  /// anything bound to storage indices.
  virtual void on_compacted() {}

  /// Algorithm 10 with this backend's answer path. Counts one query, then
  /// asks the virtual query. Queries always have b = the currently
  /// executing task, exactly like reachability_graph::precedes.
  bool precedes(task_id a, task_id b) {
    ++queries_;
    if (a == k_invalid_task) return true;
    return query(a, b);
  }

  /// Folds this backend's query-layer counters into the graph's stats:
  /// overwrites precede_queries with the base count (identical across
  /// backends by construction) and fills the backend-comparable label
  /// counters (label_bytes, label_comparisons, max_label_len).
  virtual void merge_stats(reachability_stats& s) const {
    s.precede_queries = queries_;
  }

  /// Approximate heap footprint of backend-owned state (labels, overlay),
  /// excluding the shared graph.
  virtual std::size_t memory_bytes() const { return 0; }

 protected:
  /// The backend's verdict for PRECEDE(a, b); `a` is not k_invalid_task.
  /// Must equal reachability_graph::precedes(a, b).
  virtual bool query(task_id a, task_id b) = 0;

  reachability_graph& graph_;

 private:
  std::uint64_t queries_ = 0;
};

/// Constructs the backend selected by `kind` over `graph`. The graph must
/// outlive the backend.
std::unique_ptr<precede_backend> make_precede_backend(backend_kind kind,
                                                      reachability_graph& graph);

}  // namespace futrace::dsr
