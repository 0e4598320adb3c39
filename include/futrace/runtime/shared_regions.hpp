#pragma once

/// \file shared_regions.hpp
/// Process-global registry of `shared_array` address ranges.
///
/// A `shared_array<T>` names a contiguous run of memory locations with a
/// fixed element stride. Registering that range lets shadow memory serve its
/// accesses from a direct-mapped slab — `(addr - base) >> log2(stride)` —
/// instead of hashing every access, which is the dominant cost in the
/// paper's slowdown numbers (§4.2). The registry is deliberately dumb: a
/// mutex-guarded vector of live ranges, kept sorted by base, plus a
/// monotonic version counter. Shadow memory polls the version with one
/// acquire load per access and resynchronizes only when it changed.
///
/// Registration cost model. Registering or unregistering is an O(log R)
/// search plus a shift of the sorted vector under the mutex (R = live
/// regions). The shadow side of the cost is *not* paid at construction: it
/// runs lazily inside the next access of every shadow instance, so it is
/// charged to the access path (`detect.access_ms`). That resync copies the
/// base-sorted snapshot and recomputes its geometry aggregates in one O(R)
/// pass — a flat copy, no sort or hashing — and mirrors only the k entries
/// whose version is newer than the shadow's last sync. Each of those costs
/// a seen-set insert and a slab build: O(log slabs), plus a hashed-table
/// scan only when that table holds keys inside the new range
/// (shadow_memory.hpp).
///
/// The registry records *live* ranges only. Shadow memory keeps any slab it
/// already built even after the range is unregistered — the same
/// never-forget policy the hashed table has for stale addresses, so address
/// reuse keeps its location identity within one execution. The heap
/// instrumentation layer (futrace/hook) punches through that policy
/// deliberately: a free() retires the block's shadow identity via the
/// engine's region-retire event, so a recycled address starts fresh.
///
/// Heap blocks registered by the allocator hooks live in a *side table* of
/// this registry, not the geometry vector: a malloc'd block has no element
/// stride (it is opaque until a `shared_array` or FUTRACE_ANNOTATE_REGION
/// names its geometry), it must be allowed to overlap a later geometry
/// registration over the same buffer, and — critically — tracking it must
/// not bump the region version, because every version bump costs every
/// shadow instance a resynchronization on its next access.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace futrace::detail {

struct shared_region {
  std::uintptr_t base = 0;
  std::uintptr_t end = 0;     // one past the last byte
  std::uint32_t stride = 0;   // element size in bytes
  /// g_shared_region_version right after this entry was added: a shadow that
  /// last synced at version v mirrors exactly the entries with version > v.
  std::uint64_t version = 0;

  bool overlaps(const shared_region& o) const noexcept {
    return base < o.end && o.base < end;
  }
};

/// Bumped (release) on every successful registration or removal; shadow
/// memory compares it (acquire) against the last version it mirrored.
inline std::atomic<std::uint64_t> g_shared_region_version{1};

struct shared_region_registry_state {
  std::mutex mu;
  std::vector<shared_region> regions;  // live, sorted by base, disjoint
};

inline shared_region_registry_state& shared_region_state() {
  static shared_region_registry_state s;
  return s;
}

/// Registers [base, base+bytes) with element size `stride`. Returns false —
/// and records nothing — when the range is empty, the stride does not fit
/// the record's 32-bit field (a silent truncation would hand shadow memory
/// a wrong geometry and corrupt canonicalization), overlaps a live range,
/// or the registry itself cannot allocate (registration is an optimization
/// hint; failure must never take the program down).
inline bool register_shared_region(const void* base, std::size_t bytes,
                                   std::size_t stride) noexcept {
  if (base == nullptr || bytes == 0 || stride == 0) return false;
  if (stride > 0xFFFFFFFFull) return false;
  shared_region r;
  r.base = reinterpret_cast<std::uintptr_t>(base);
  r.end = r.base + bytes;
  r.stride = static_cast<std::uint32_t>(stride);
  auto& st = shared_region_state();
  std::lock_guard<std::mutex> lock(st.mu);
  // Live ranges are disjoint and base-sorted, so only the neighbours of the
  // insertion point can overlap the newcomer.
  const auto pos = std::upper_bound(
      st.regions.begin(), st.regions.end(), r.base,
      [](std::uintptr_t key, const shared_region& g) { return key < g.base; });
  if (pos != st.regions.end() && r.overlaps(*pos)) return false;
  if (pos != st.regions.begin() && r.overlaps(*std::prev(pos))) return false;
  r.version = g_shared_region_version.load(std::memory_order_relaxed) + 1;
  try {
    st.regions.insert(pos, r);
  } catch (...) {
    return false;
  }
  g_shared_region_version.fetch_add(1, std::memory_order_release);
  return true;
}

/// Removes the live range starting at `base`. Returns true iff a range was
/// actually removed; false reports an absent base, so the free-hooks can
/// count a double-unregister or a foreign pointer instead of dropping it.
inline bool unregister_shared_region(const void* base) noexcept {
  if (base == nullptr) return false;
  const std::uintptr_t b = reinterpret_cast<std::uintptr_t>(base);
  auto& st = shared_region_state();
  std::lock_guard<std::mutex> lock(st.mu);
  const auto it = std::lower_bound(
      st.regions.begin(), st.regions.end(), b,
      [](const shared_region& g, std::uintptr_t key) { return g.base < key; });
  if (it == st.regions.end() || it->base != b) return false;
  // Order-preserving: the list stays sorted.
  st.regions.erase(it);
  g_shared_region_version.fetch_add(1, std::memory_order_release);
  return true;
}

inline std::uint64_t shared_region_version() noexcept {
  return g_shared_region_version.load(std::memory_order_acquire);
}

/// Copies the live ranges, base-sorted, into `out`, reusing its capacity.
inline void shared_region_snapshot(std::vector<shared_region>& out) {
  auto& st = shared_region_state();
  std::lock_guard<std::mutex> lock(st.mu);
  out.assign(st.regions.begin(), st.regions.end());
}

/// The live ranges, base-sorted.
inline std::vector<shared_region> shared_region_snapshot() {
  std::vector<shared_region> out;
  shared_region_snapshot(out);
  return out;
}

// -------------------------------------------------- heap-block side table
// Extents of live heap blocks registered by the allocator hooks
// (futrace/hook/heap_hooks.hpp). Kept apart from the geometry vector: see
// the file comment. The callers hold no lock across an engine emission, so
// every operation here is a single short critical section.

struct heap_block_table_state {
  std::mutex mu;
  std::unordered_map<std::uintptr_t, std::size_t> blocks;  // base -> bytes
};

inline heap_block_table_state& heap_block_state() {
  // Intentionally leaked: interposed frees keep arriving during static
  // destruction (other TUs' destructors run after this table's would
  // have), and they must find a live mutex and map.
  static heap_block_table_state* s = new heap_block_table_state();
  return *s;
}

/// Records a live heap block [base, base+bytes). Returns false on a null or
/// empty block, a duplicate base (allocator invariant violation — kept with
/// the original extent), or an allocation failure inside the table itself.
inline bool register_heap_block(const void* base, std::size_t bytes) noexcept {
  if (base == nullptr || bytes == 0) return false;
  auto& st = heap_block_state();
  std::lock_guard<std::mutex> lock(st.mu);
  try {
    return st.blocks.emplace(reinterpret_cast<std::uintptr_t>(base), bytes)
        .second;
  } catch (...) {
    return false;
  }
}

/// Removes the block starting at `base` and returns its byte length, or 0
/// when no such block is tracked (foreign pointer or double free).
inline std::size_t release_heap_block(const void* base) noexcept {
  if (base == nullptr) return 0;
  auto& st = heap_block_state();
  std::lock_guard<std::mutex> lock(st.mu);
  const auto it = st.blocks.find(reinterpret_cast<std::uintptr_t>(base));
  if (it == st.blocks.end()) return 0;
  const std::size_t bytes = it->second;
  st.blocks.erase(it);
  return bytes;
}

/// The tracked extent of the block at `base`, or 0 when untracked.
inline std::size_t heap_block_bytes(const void* base) noexcept {
  if (base == nullptr) return 0;
  auto& st = heap_block_state();
  std::lock_guard<std::mutex> lock(st.mu);
  const auto it = st.blocks.find(reinterpret_cast<std::uintptr_t>(base));
  return it == st.blocks.end() ? 0 : it->second;
}

/// Live tracked blocks (tests and the obs gauge).
inline std::size_t heap_block_count() noexcept {
  auto& st = heap_block_state();
  std::lock_guard<std::mutex> lock(st.mu);
  return st.blocks.size();
}

/// Drops every tracked block (test isolation between runs).
inline void clear_heap_blocks() noexcept {
  auto& st = heap_block_state();
  std::lock_guard<std::mutex> lock(st.mu);
  st.blocks.clear();
}

}  // namespace futrace::detail
