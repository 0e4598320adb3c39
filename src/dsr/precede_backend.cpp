#include "futrace/dsr/precede_backend.hpp"

#include <algorithm>

#include "futrace/dsr/depa_labels.hpp"
#include "futrace/dsr/labels.hpp"
#include "futrace/support/assert.hpp"

namespace futrace::dsr {

bool parse_backend_kind(std::string_view name, backend_kind* out) noexcept {
  if (name == "graph") {
    *out = backend_kind::graph;
    return true;
  }
  if (name == "depa") {
    *out = backend_kind::depa;
    return true;
  }
  return false;
}

namespace {

/// The default backend: every query is the paper's Algorithm 10 verbatim.
/// The graph keeps its own rep-keyed memo, whose invalidation-on-union
/// behaviour the fastpath tests pin; no extra state.
class graph_backend final : public precede_backend {
 public:
  using precede_backend::precede_backend;

  backend_kind kind() const noexcept override { return backend_kind::graph; }

  void merge_stats(reachability_stats& s) const override {
    precede_backend::merge_stats(s);
    // Ordering state per vertex: the task's own interval plus its set's.
    s.label_bytes += graph_.task_count() * 2 * sizeof(interval_label);
    s.max_label_len = std::max<std::uint64_t>(s.max_label_len,
                                              sizeof(interval_label));
  }

 protected:
  bool query(task_id a, task_id b) override { return graph_.precedes(a, b); }
};

/// DePa-style backend: fork-path labels answer live spawn-ancestor queries
/// by byte-prefix, and a join-frontier overlay — an anchored union-find over
/// the get/finish join edges — answers transitively joined chains in O(α).
/// Everything else delegates to the graph search, which stays authoritative,
/// so verdicts are bit-identical by construction.
///
/// Overlay invariant: every member of a component fully precedes every
/// future step of the component's *anchor* (the one live task the component
/// was built under). At get/finish(W, T) with T terminated, comp(T) may
/// merge into comp(W) only when T is still its own component's anchor — a T
/// already absorbed into some other terminated task X's component must not
/// merge, since comp(T)'s members are only known to precede X, and X may be
/// parallel to W. The currently executing task is always its own
/// component's anchor (live tasks are never the absorbed side), which is
/// what makes the O(α) "same component" test answer PRECEDE(a, b)
/// positively: a's component's members all precede b's current step.
///
/// Prefix shortcut soundness: `a` live and path(a) a prefix of path(b)
/// means a is a paused spawn ancestor of the executing b, so every executed
/// step of a precedes b's current step; the graph agrees by set-label
/// subsumption (a live keeps its set label [pre(a), temporary-post], and
/// temporary posts decrease with spawn depth). The shortcut must NOT be
/// extended to terminated `a`: across a promise-put split the graph does
/// not order the dead pre-split identity before its continuation until an
/// explicit get edge exists, so a terminated-ancestor prefix test would
/// claim orderings the graph denies.
class depa_backend final : public precede_backend {
 public:
  using precede_backend::precede_backend;

  backend_kind kind() const noexcept override { return backend_kind::depa; }

  void on_root_created([[maybe_unused]] task_id root) override {
    FUTRACE_DCHECK(graph_.id_map().to_index(root) == 0);
    labels_.add_root();
    dsu_push();
  }

  void on_task_created(task_id parent,
                       [[maybe_unused]] task_id child) override {
    const epoch_id_map& m = graph_.id_map();
    FUTRACE_DCHECK(m.to_index(child) == labels_.size());
    labels_.add_child(m.to_index(parent));
    dsu_push();
  }

  void on_get_joined(task_id waiter, task_id target) override {
    join_target(waiter, target);
  }

  void on_finish_joined(task_id owner, task_id joined) override {
    join_target(owner, joined);
  }

  void on_compacted() override {
    // Rebuild the label arena over the new dense index space, freeing every
    // retired task's path bytes. prior_map_ is the translation this backend
    // last mirrored; composing new-index -> runtime id -> old-index finds
    // each survivor's old label.
    const epoch_id_map& nm = graph_.id_map();
    const std::size_t n = graph_.task_count();
    std::vector<task_id> old_index_for_new(n, k_invalid_task);
    for (std::size_t i = 0; i < n; ++i) {
      const task_id id = nm.to_id(static_cast<task_id>(i));
      if (id == k_invalid_task) continue;  // the tombstone slot
      old_index_for_new[i] = prior_map_.to_index(id);
      FUTRACE_DCHECK(old_index_for_new[i] != k_invalid_task);
    }
    labels_.rebuild(old_index_for_new);
    // The overlay resets to singletons: a sound under-approximation (the
    // shortcut just answers fewer queries until new joins accumulate), and
    // the retired components it forgets are answered by the retirement
    // prelude anyway.
    dsu_parent_.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      dsu_parent_[i] = static_cast<task_id>(i);
    }
    anchor_ = dsu_parent_;
    prior_map_ = nm;
  }

  void merge_stats(reachability_stats& s) const override {
    precede_backend::merge_stats(s);
    // Fallback queries already put the graph's own search counters
    // (frontier_searches, visit_steps, subsumption comparisons) into `s`;
    // here we add the label-layer costs this backend paid natively.
    s.label_bytes += labels_.arena_bytes();
    s.label_comparisons += labels_.comparisons();
    s.max_label_len =
        std::max<std::uint64_t>(s.max_label_len, labels_.max_label_bytes());
  }

  std::size_t memory_bytes() const override {
    return labels_.memory_bytes() +
           (dsu_parent_.capacity() + anchor_.capacity()) * sizeof(task_id);
  }

 protected:
  bool query(task_id a, task_id b) override {
    const epoch_id_map& m = graph_.id_map();
    const task_id ai = m.to_index(a);
    if (ai == k_invalid_task) return true;  // retired: fully ordered
    const task_id bi = m.to_index(b);
    if (ai == bi) return true;
    if (dsu_find(ai) == dsu_find(bi)) return true;  // joined into b's chain
    if (!graph_.terminated(a) && labels_.is_prefix(ai, bi)) return true;
    return graph_.precedes(a, b);  // authoritative for everything else
  }

 private:
  void dsu_push() {
    dsu_parent_.push_back(static_cast<task_id>(dsu_parent_.size()));
    anchor_.push_back(dsu_parent_.back());
  }

  task_id dsu_find(task_id t) {
    task_id* const parent = dsu_parent_.data();
    task_id p = parent[t];
    while (p != t) {
      const task_id gp = parent[p];
      if (gp == p) return p;
      parent[t] = gp;
      t = gp;
      p = parent[gp];
    }
    return t;
  }

  void join_target(task_id waiter, task_id target) {
    // Only a fully terminated target's component may be absorbed: the merge
    // asserts "everything joined under `target` has finished and now
    // precedes `waiter`'s future steps".
    if (!graph_.terminated(target)) return;  // live ancestor: spawn-chain path
    const epoch_id_map& m = graph_.id_map();
    const task_id ti = m.to_index(target);
    if (ti == k_invalid_task) return;  // retired: the prelude answers for it
    if (ti >= dsu_parent_.size()) return;  // vertexless (spawn unwound)
    const task_id rt = dsu_find(ti);
    if (anchor_[rt] != ti) return;  // absorbed target: unsound to re-merge
    const task_id wi = m.to_index(waiter);
    const task_id rw = dsu_find(wi);
    if (rt == rw) return;
    const task_id keep = anchor_[rw];
    // Union by size via the label depths as a proxy is not available here;
    // plain size tracking would need another array, and components are built
    // by repeatedly absorbing small terminated chains into the live waiter's
    // component — attach the target side under the waiter side, which keeps
    // the live component's root stable and the find() chains short.
    dsu_parent_[rt] = rw;
    anchor_[rw] = keep;
  }

  depa_label_store labels_;
  std::vector<task_id> dsu_parent_;  // overlay union-find, by storage index
  std::vector<task_id> anchor_;      // component anchor, valid at roots
  epoch_id_map prior_map_;           // graph id map as of the last compaction
};

}  // namespace

std::unique_ptr<precede_backend> make_precede_backend(
    backend_kind kind, reachability_graph& graph) {
  switch (kind) {
    case backend_kind::graph:
      return std::make_unique<graph_backend>(graph);
    case backend_kind::depa:
      return std::make_unique<depa_backend>(graph);
  }
  FUTRACE_CHECK_MSG(false, "unknown precede backend kind");
  return nullptr;
}

}  // namespace futrace::dsr
