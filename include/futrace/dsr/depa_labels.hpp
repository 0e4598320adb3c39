#pragma once

/// \file depa_labels.hpp
/// DePa-style fork-path labels (Westrick, Wang, Acar: "DePa: Simple,
/// Provably Efficient, and Practical Order Maintenance for Task
/// Parallelism"). Every task is labelled by the path of spawn ordinals from
/// the root to itself: the root's path is empty, and the k-th child of a
/// task with path P gets path P·k. Labels are immutable once assigned, so
/// maintenance is O(1) amortized per spawn (one arena append) with no
/// global renumbering, and the spawn-tree ancestor test is a pure prefix
/// comparison in O(min(|a|, |b|)) bytes:
///
///   ancestor-or-self(a, b)  ⟺  path(a) is a prefix of path(b)
///
/// Ordinals are LEB128 varints. A varint is self-delimiting, so a byte
/// prefix that ends at a component boundary is exactly a component prefix —
/// and every stored path ends at a component boundary, which makes the
/// byte-level memcmp test exact.
///
/// The store is indexed by the reachability graph's storage indices and
/// rebuilt at epoch compaction: only surviving tasks' paths are copied into
/// the fresh arena, freeing every retired task's label bytes.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "futrace/dsr/epoch_map.hpp"
#include "futrace/support/assert.hpp"

namespace futrace::dsr {

class depa_label_store {
 public:
  /// Appends the root's label (the empty path). Must be the first label.
  void add_root() {
    FUTRACE_DCHECK(paths_.empty());
    paths_.push_back(path_ref{0, 0, 0});
    kids_.push_back(0);
  }

  /// Appends the label for the next child of `parent_index`: the parent's
  /// path plus the child's spawn ordinal as one varint.
  void add_child(task_id parent_index) {
    FUTRACE_DCHECK(parent_index < paths_.size());
    const path_ref parent = paths_[parent_index];
    const std::uint32_t ordinal = kids_[parent_index]++;
    const auto offset = static_cast<std::uint32_t>(arena_.size());
    arena_.insert(arena_.end(), arena_.begin() + parent.offset,
                  arena_.begin() + parent.offset + parent.bytes);
    std::uint32_t v = ordinal;
    while (v >= 0x80) {
      arena_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    arena_.push_back(static_cast<std::uint8_t>(v));
    const auto bytes = static_cast<std::uint32_t>(arena_.size()) - offset;
    paths_.push_back(path_ref{offset, bytes, parent.depth + 1});
    kids_.push_back(0);
    if (bytes > max_bytes_) max_bytes_ = bytes;
  }

  /// True iff `a_index`'s path is a prefix of `b_index`'s — i.e. a is a
  /// spawn-tree ancestor-or-self of b. Counts one label comparison.
  bool is_prefix(task_id a_index, task_id b_index) {
    ++comparisons_;
    const path_ref& a = paths_[a_index];
    const path_ref& b = paths_[b_index];
    if (a.bytes > b.bytes) return false;
    return std::memcmp(arena_.data() + a.offset, arena_.data() + b.offset,
                       a.bytes) == 0;
  }

  /// Epoch compaction: rebuilds the store over the new dense index space.
  /// `old_index_for_new` maps each surviving slot (kept tasks in their new
  /// order, then the tombstone as k_invalid_task) to its pre-compaction
  /// index; every other label's bytes are freed with the old arena. Child
  /// ordinal counters survive so labels minted after the compaction never
  /// collide with pre-compaction siblings.
  void rebuild(const std::vector<task_id>& old_index_for_new) {
    std::vector<std::uint8_t> arena;
    std::vector<path_ref> paths;
    std::vector<std::uint32_t> kids;
    paths.reserve(old_index_for_new.size());
    kids.reserve(old_index_for_new.size());
    for (const task_id oi : old_index_for_new) {
      if (oi == k_invalid_task) {  // the tombstone slot: empty path
        paths.push_back(path_ref{0, 0, 0});
        kids.push_back(0);
        continue;
      }
      const path_ref& src = paths_[oi];
      const auto offset = static_cast<std::uint32_t>(arena.size());
      arena.insert(arena.end(), arena_.begin() + src.offset,
                   arena_.begin() + src.offset + src.bytes);
      paths.push_back(path_ref{offset, src.bytes, src.depth});
      kids.push_back(kids_[oi]);
    }
    arena_ = std::move(arena);
    paths_ = std::move(paths);
    kids_ = std::move(kids);
    arena_.shrink_to_fit();
  }

  // -- introspection (stats merging and the Appendix-A label tests) ----------

  std::size_t size() const noexcept { return paths_.size(); }
  std::uint32_t depth(task_id index) const { return paths_[index].depth; }
  std::uint32_t byte_length(task_id index) const {
    return paths_[index].bytes;
  }

  /// Decodes the path into its component ordinals (tests only; queries never
  /// decode).
  std::vector<std::uint32_t> components(task_id index) const {
    const path_ref& p = paths_[index];
    std::vector<std::uint32_t> out;
    out.reserve(p.depth);
    std::uint32_t v = 0;
    int shift = 0;
    for (std::uint32_t i = 0; i < p.bytes; ++i) {
      const std::uint8_t byte = arena_[p.offset + i];
      v |= static_cast<std::uint32_t>(byte & 0x7F) << shift;
      if (byte & 0x80) {
        shift += 7;
      } else {
        out.push_back(v);
        v = 0;
        shift = 0;
      }
    }
    return out;
  }

  std::uint64_t arena_bytes() const noexcept { return arena_.size(); }
  std::uint64_t comparisons() const noexcept { return comparisons_; }
  std::uint64_t max_label_bytes() const noexcept { return max_bytes_; }

  std::size_t memory_bytes() const noexcept {
    return arena_.capacity() +
           paths_.capacity() * sizeof(path_ref) +
           kids_.capacity() * sizeof(std::uint32_t);
  }

 private:
  struct path_ref {
    std::uint32_t offset = 0;  // into arena_
    std::uint32_t bytes = 0;
    std::uint32_t depth = 0;  // component count
  };

  std::vector<std::uint8_t> arena_;
  std::vector<path_ref> paths_;   // by storage index
  std::vector<std::uint32_t> kids_;  // next child ordinal, by storage index
  std::uint64_t comparisons_ = 0;
  std::uint64_t max_bytes_ = 0;
};

}  // namespace futrace::dsr
