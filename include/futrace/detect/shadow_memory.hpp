#pragma once

/// \file shadow_memory.hpp
/// Shadow memory (paper §4.2). Every instrumented location carries:
///   - w: the task that last wrote it, and
///   - r: the set of tasks that read it in parallel since the last write —
///        at most one async task (Lemma 4 makes one representative async
///        reader sufficient) but arbitrarily many future tasks.
///
/// One shadow lookup happens per instrumented access, and big workloads
/// touch hundreds of megabytes of shadow state, so storage is two-tier:
///
///   - Direct-mapped slabs. A `shared_array<T>` registers its address range
///     (shared_regions.hpp); accesses inside a registered range resolve to
///     `slab[(addr - base) >> log2(stride)]` — one bounds check and one
///     indexed load, no hashing, no probing. Array elements dominate the
///     paper's workloads (Jacobi, Smith-Waterman, Crypt), so most accesses
///     take this path.
///   - A hashed `ptr_map` for everything else: scalar `shared<T>` cells,
///     unregistered ranges, and ranges whose slab could not be built
///     (byte cap, allocation failure, non-power-of-two stride, overlap
///     with an existing slab).
///
/// The cell layout stays compact: 32 bytes (two per cache line), with
/// source positions interned to 4-byte site ids, one reader stored inline
/// (the paper's #AvgReaders is < 2 everywhere; additional future readers
/// spill to a heap vector), and an 8-byte access stamp the detector uses to
/// elide provably-redundant re-checks (race_detector.hpp).
///
/// The detector owns the update rules (Algorithms 8 and 9); this class owns
/// storage and the counters the paper reports (#SharedMem, #AvgReaders).

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "futrace/obs/trace.hpp"
#include "futrace/runtime/observer.hpp"
#include "futrace/runtime/shared_regions.hpp"
#include "futrace/support/alloc_gate.hpp"
#include "futrace/support/ptr_map.hpp"
#include "futrace/support/small_vector.hpp"

namespace futrace::detect {

/// Interned source position (index into site_table).
using site_id = std::uint32_t;

/// Interns access_site values; hot loops hit the one-entry cache because
/// consecutive accesses come from the same statement.
class site_table {
 public:
  site_table() { sites_.push_back(access_site{"<unknown>", 0}); }

  site_id intern(access_site site) {
    if (site.file == last_file_ && site.line == last_line_) return last_id_;
    const std::uint64_t key =
        mix(reinterpret_cast<std::uint64_t>(site.file)) ^
        mix(0x9E3779B97F4A7C15ULL + site.line);
    auto [it, inserted] = index_.try_emplace(
        key, static_cast<site_id>(sites_.size()));
    if (inserted) sites_.push_back(site);
    last_file_ = site.file;
    last_line_ = site.line;
    last_id_ = it->second;
    return it->second;
  }

  access_site resolve(site_id id) const {
    return id < sites_.size() ? sites_[id] : sites_[0];
  }

 private:
  // splitmix64 finalizer. The previous key, (file_ptr << 16) ^ line, threw
  // away the pointer's high 16 bits and let two files collide whenever
  // their pointers differed only there (or a line number cancelled the low
  // pointer bits); mixing each component to full avalanche first makes the
  // combined key collision-resistant.
  static std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  std::vector<access_site> sites_;
  std::unordered_map<std::uint64_t, site_id> index_;
  const char* last_file_ = nullptr;
  std::uint32_t last_line_ = 0;
  site_id last_id_ = 0;
};

struct reader_entry {
  task_id task = k_invalid_task;
  site_id site = 0;
};

/// In shadow_cell::stamp_step: set when the stamped access was a write.
inline constexpr std::uint32_t k_stamp_write = 0x80000000u;

/// 32-byte shadow cell: writer + one inline reader + overflow list + the
/// detector's last-access stamp (task and 31-bit step, with k_stamp_write
/// marking write accesses). Two cells per cache line.
struct shadow_cell {
  task_id writer = k_invalid_task;
  site_id writer_site = 0;
  reader_entry reader0;
  std::vector<reader_entry>* overflow = nullptr;
  task_id stamp_task = k_invalid_task;
  std::uint32_t stamp_step = 0;

  std::size_t reader_count() const {
    if (reader0.task == k_invalid_task) return 0;
    return 1 + (overflow ? overflow->size() : 0);
  }

  reader_entry reader_at(std::size_t i) const {
    return i == 0 ? reader0 : (*overflow)[i - 1];
  }

  /// O(1) unordered removal: the last entry fills the hole.
  void remove_reader_at(std::size_t i) {
    if (overflow && !overflow->empty()) {
      if (i == 0) {
        reader0 = overflow->back();
      } else {
        (*overflow)[i - 1] = overflow->back();
      }
      overflow->pop_back();
      return;
    }
    reader0 = reader_entry{};
  }

  /// Records a reader. Returns false — dropping the entry — only when the
  /// overflow vector is needed and its allocation is refused by the alloc
  /// gate; the caller must then treat detection results as incomplete.
  bool add_reader(reader_entry e) {
    if (reader0.task == k_invalid_task) {
      reader0 = e;
      return true;
    }
    if (!overflow) {
      if (support::alloc_should_fail(sizeof(std::vector<reader_entry>))) {
        return false;
      }
      overflow = new std::vector<reader_entry>();
    }
    overflow->push_back(e);
    return true;
  }

  /// True once any access touched this cell (Algorithms 8/9 always leave a
  /// writer or at least one reader behind); lets slabs count distinct
  /// locations without per-cell occupancy bookkeeping.
  bool touched() const noexcept {
    return writer != k_invalid_task || reader0.task != k_invalid_task;
  }
};
static_assert(sizeof(shadow_cell) <= 32);

/// Counters for the storage fast path (direct-mapped slabs vs hashing).
struct shadow_stats {
  std::uint64_t direct_hits = 0;   // accesses served by a slab
  std::uint64_t hashed_hits = 0;   // accesses served by the ptr_map
  std::uint64_t mru_hits = 0;      // hashed hits served by the one-slot MRU
  std::uint64_t slabs_built = 0;   // registered ranges direct-mapped
  std::uint64_t slab_fallbacks = 0;   // ranges kept on the hashed path
  std::uint64_t rejected_overlaps = 0;  // ranges colliding with a live slab
  std::uint64_t migrated_cells = 0;  // hashed cells moved into a new slab
  std::uint64_t migration_scans = 0;  // full hashed-table sweeps (slab
                                      // build or large-block retire)
  std::uint64_t summaries_established = 0;  // full-slab runs collapsed
  std::uint64_t summary_materializations = 0;  // summaries expanded back
};

class shadow_memory {
 public:
  /// Uniform-interval summary of a whole slab: when valid, *every* cell of
  /// the slab logically holds this state (writer, at most one reader, and
  /// the detector's last-access stamp) and the per-cell array is stale. A
  /// summary is established by the detector after a full-slab range write
  /// that reported no race — the one walk that provably leaves all cells
  /// identical — and is maintained in O(1) by later full-slab range
  /// accesses. Any scalar access, partial range, race, or state the single
  /// reader slot cannot hold triggers materialize(), copying the summary
  /// back into every cell before per-cell checking resumes, so the set of
  /// reported races is exactly that of per-element checking.
  struct run_summary {
    bool valid = false;
    task_id writer = k_invalid_task;
    site_id writer_site = 0;
    reader_entry reader;
    task_id stamp_task = k_invalid_task;
    std::uint32_t stamp_step = 0;
  };

  /// One direct-mapped range: a contiguous slab of cells covering
  /// [base, end) at 1 << shift bytes per element. Slabs persist for the
  /// lifetime of the shadow memory even if the underlying shared_array is
  /// destroyed — same never-forget policy as the hashed table, so address
  /// reuse keeps its location identity within one execution.
  struct direct_range {
    std::uintptr_t base = 0;
    std::uintptr_t end = 0;
    std::uint32_t shift = 0;
    /// The mirrored_regions_ key of the registration this slab was built
    /// from, so retiring the slab also forgets the registration and an
    /// identical later re-registration gets a fresh slab.
    std::uint64_t region_key = 0;
    std::vector<shadow_cell> cells;
    run_summary summary;
  };

  /// A resolved range access: `count` consecutive cells starting at `first`
  /// inside `slab`. `first == nullptr` means the range could not be served
  /// natively (hashed tier, stride mismatch, misalignment, or spilling past
  /// the slab) and the caller must decompose to per-element accesses.
  struct slab_run {
    shadow_cell* first = nullptr;
    direct_range* slab = nullptr;
    bool full = false;  // the run covers every cell of the slab
  };

  /// A scalar access decomposed against the registered element geometry:
  /// the access [addr, addr+size) overlaps `count` elements of `stride`
  /// bytes, the first starting at `first` (element-aligned). count == 1
  /// for the common case of an access no larger than its element.
  struct access_span {
    const void* first = nullptr;
    std::size_t count = 1;
    std::size_t stride = 0;
  };

  shadow_memory() = default;
  shadow_memory(shadow_memory&&) noexcept = default;
  shadow_memory& operator=(shadow_memory&&) noexcept = default;

  ~shadow_memory() {
    cells_.for_each([](const void*, shadow_cell& cell) {
      delete cell.overflow;
      cell.overflow = nullptr;
    });
    for (direct_range& r : ranges_) {
      for (shadow_cell& cell : r.cells) {
        delete cell.overflow;
        cell.overflow = nullptr;
      }
    }
  }

  /// Finds or creates the cell for a location, counting the access and the
  /// readers currently stored (the paper's #AvgReaders statistic samples the
  /// reader-set size at every read/write).
  shadow_cell& access(const void* addr) {
    ++accesses_;
    if (shadow_cell* cell = direct_find(addr)) {
      ++stats_.direct_hits;
      readers_sampled_ += cell->reader_count();
      return *cell;
    }
    if (shadow_cell* cell = hashed_mru(addr)) {
      readers_sampled_ += cell->reader_count();
      return *cell;
    }
    shadow_cell& cell = cells_[addr];
    ++stats_.hashed_hits;
    note_hashed_cell(addr, &cell);
    readers_sampled_ += cell.reader_count();
    return cell;
  }

  /// Caps the shadow table's heap footprint; 0 means unlimited. Once the cap
  /// (or an injected allocation failure) is hit, the map degrades: existing
  /// cells keep working, new locations stop materializing, and accesses keep
  /// being counted. Slab construction also respects the cap, but a refused
  /// slab is not degradation — the range falls back to the hashed path with
  /// full fidelity.
  void set_max_bytes(std::size_t bytes) noexcept { max_bytes_ = bytes; }

  /// Enables/disables the direct-mapped slab tier (on by default). The
  /// detector turns it off in --no-fastpath differential-debugging runs.
  void set_direct_mapped(bool enabled) noexcept { direct_enabled_ = enabled; }

  /// Restricts this shadow instance to the addresses one pipelined checker
  /// worker owns (shard.hpp's chunk rule): registered regions are clipped to
  /// the owned chunks, producing one slab per owned chunk-intersection
  /// instead of one slab per region. The sharded producer routes every
  /// access to its owner, so cells for unowned addresses are simply never
  /// materialized — and a per-chunk range sub-event that covers a whole
  /// clipped slab still collapses into a run summary, keeping the O(1)
  /// re-sweep tier alive under sharding. Must be set before the first
  /// access; `count <= 1` means no clipping (the inline layout).
  void set_shard(unsigned chunk_shift, std::size_t index,
                 std::size_t count) noexcept {
    shard_shift_ = chunk_shift;
    shard_index_ = index;
    shard_count_ = count;
  }

  /// Pre-sizes the hashed table for `expected_locations` entries (the
  /// --shadow-hint flag / workload hint), avoiding rehash storms
  /// mid-benchmark. Silently skipped when it would exceed the byte cap or
  /// the alloc gate refuses — a hint must never cause degradation.
  void reserve(std::size_t expected_locations) {
    std::size_t cap = 16;
    while (cap < expected_locations * 2) cap <<= 1;
    const std::size_t bytes = cap * (sizeof(shadow_cell) + sizeof(void*));
    if (max_bytes_ != 0 && slab_bytes_ + bytes > max_bytes_) return;
    if (support::alloc_should_fail(bytes)) return;
    cells_.reserve(expected_locations);
  }

  /// True once an insertion was refused (byte cap or injected allocation
  /// failure). Sticky: detection results are incomplete from that point on.
  bool degraded() const noexcept { return degraded_; }

  /// Marks the shadow state incomplete (used by the detector when a reader
  /// entry had to be dropped because its overflow allocation was refused).
  void mark_degraded() noexcept { degraded_ = true; }

  /// Resource-capped variant of access(): returns nullptr instead of
  /// materializing a cell when the table cannot (or must not) grow. The
  /// access is counted either way — Table 2 counters survive degradation.
  shadow_cell* try_access(const void* addr) {
    ++accesses_;
    if (shadow_cell* cell = direct_find(addr)) {
      ++stats_.direct_hits;
      readers_sampled_ += cell->reader_count();
      return cell;
    }
    if (shadow_cell* cell = hashed_mru(addr)) {
      readers_sampled_ += cell->reader_count();
      return cell;
    }
    if (shadow_cell* cell = cells_.find(addr)) {
      ++stats_.hashed_hits;
      note_hashed_cell(addr, cell);
      readers_sampled_ += cell->reader_count();
      return cell;
    }
    if (!degraded_) {
      const bool over_cap =
          max_bytes_ != 0 &&
          slab_bytes_ + cells_.bytes_after_insert() > max_bytes_;
      if (!over_cap && !support::alloc_should_fail(sizeof(shadow_cell))) {
        ++stats_.hashed_hits;
        shadow_cell* cell = &cells_[addr];
        note_hashed_cell(addr, cell);
        return cell;
      }
      degraded_ = true;
    }
    ++skipped_;
    return nullptr;
  }

  /// Counts an access without touching storage (used once the detector's
  /// reachability graph has degraded and cell contents no longer matter).
  void count_only() noexcept {
    ++accesses_;
    ++skipped_;
  }

  /// Bulk count_only: `count` untracked accesses in one call.
  void count_only_n(std::size_t count) noexcept {
    accesses_ += count;
    skipped_ += count;
  }

  /// Counts `count` slab-served accesses in one call (the range engine's
  /// tight loop and the summary fast path both resolve the slab once but
  /// must keep #SharedMem and the tier counters element-exact).
  void note_range_direct(std::size_t count) noexcept {
    accesses_ += count;
    stats_.direct_hits += count;
  }

  /// Adds `n` to the #AvgReaders sample sum (range paths sample readers in
  /// bulk instead of once per access()).
  void add_reader_samples(std::uint64_t n) noexcept { readers_sampled_ += n; }

  /// The #AvgReaders numerator. Exposed exactly (not via the avg double) so
  /// the pipelined detector can merge per-shard averages without rounding.
  std::uint64_t reader_samples() const noexcept { return readers_sampled_; }

  /// Resolves a range access of `count` elements of `stride` bytes starting
  /// at `addr` against the slab tier. Succeeds only when the whole run lives
  /// in one slab, element-aligned, with stride equal to the slab's: then the
  /// caller can walk `count` consecutive cells from `first` with no further
  /// lookups. Does NOT materialize a pending summary — the caller decides
  /// between the O(1) summary transition and materialize-then-walk.
  slab_run find_run(const void* addr, std::size_t count, std::size_t stride) {
    if (!direct_enabled_) return {};
    sync_if_stale();
    if (ranges_.empty()) return {};
    const std::uintptr_t a = reinterpret_cast<std::uintptr_t>(addr);
    direct_range* r = find_slab(a);
    if (r == nullptr) return {};
    if (stride != (std::size_t{1} << r->shift)) return {};
    if (((a - r->base) & (stride - 1)) != 0) return {};
    if (count > ((r->end - a) >> r->shift)) return {};
    const std::size_t idx = static_cast<std::size_t>((a - r->base) >> r->shift);
    return slab_run{&r->cells[idx], r, idx == 0 && count == r->cells.size()};
  }

  /// Collapses a slab to the given uniform state (detector calls this after
  /// a race-free full-slab write walk).
  void establish_summary(direct_range& r, const run_summary& s) {
    r.summary = s;
    r.summary.valid = true;
    ++stats_.summaries_established;
  }

  /// Expands a slab summary back into per-cell state: every cell takes the
  /// uniform writer/reader/stamp; spilled reader vectors are cleared but
  /// keep their allocation. No allocation happens here, so materialization
  /// can never degrade the shadow state.
  void materialize(direct_range& r) noexcept {
    obs::trace_emit(obs::trace_kind::slab_materialize, obs::trace_track::task,
                    0, r.cells.size());
    const run_summary s = r.summary;
    r.summary = run_summary{};
    for (shadow_cell& cell : r.cells) {
      cell.writer = s.writer;
      cell.writer_site = s.writer_site;
      cell.reader0 = s.reader;
      if (cell.overflow) cell.overflow->clear();
      cell.stamp_task = s.stamp_task;
      cell.stamp_step = s.stamp_step;
    }
    ++stats_.summary_materializations;
  }

  /// Decomposes a scalar access of `size` bytes at `addr` against the
  /// registered element geometry (the live region list, independent of
  /// whether slabs are enabled). An access no larger than the smallest
  /// registered element — the overwhelmingly common case — returns
  /// {addr, 1} after one version check; an access that straddles element
  /// boundaries returns the aligned run of every element it overlaps, so
  /// the detector checks each underlying location instead of only the
  /// first (mixed-size under-checking fix).
  access_span span_of(const void* addr, std::size_t size) {
    sync_if_stale();
    const std::uintptr_t a = reinterpret_cast<std::uintptr_t>(addr);
    // Fast bail for the common aligned scalar: when every live region has a
    // power-of-two stride and a stride-aligned base, element boundaries are
    // `size`-aligned for any power-of-two size <= the minimum stride, so a
    // size-aligned access cannot cross one.
    if (geoms_aligned_ && size <= min_geom_stride_ &&
        (size & (size - 1)) == 0 && (a & (size - 1)) == 0) {
      return access_span{addr, 1, size};
    }
    const auto it = std::upper_bound(
        geoms_.begin(), geoms_.end(), a,
        [](std::uintptr_t key, const detail::shared_region& g) {
          return key < g.base;
        });
    if (it == geoms_.begin()) return access_span{addr, 1, size};
    const detail::shared_region& g = *std::prev(it);
    if (a >= g.end) return access_span{addr, 1, size};
    const std::uintptr_t first = g.base + (a - g.base) / g.stride * g.stride;
    const std::uintptr_t last = std::min<std::uintptr_t>(a + size, g.end);
    const std::size_t count =
        static_cast<std::size_t>((last - first + g.stride - 1) / g.stride);
    // count == 1 still canonicalizes `first` to the element base, so the
    // hashed and slab tiers key sub-element accesses to the same location.
    return access_span{reinterpret_cast<const void*>(first), count, g.stride};
  }

  /// Side-effect-free tier probe for race-report provenance: names the
  /// tier holding `addr`'s shadow state. A plain binary search over the
  /// slab index — no MRU update, no summary materialization, no lazy sync —
  /// so calling it on the cold report path cannot perturb any counter,
  /// cached state, or pending summary (unlike the access-path lookups).
  const char* tier_name(const void* addr) const noexcept {
    const std::uintptr_t a = reinterpret_cast<std::uintptr_t>(addr);
    const auto it = first_slab_above(ranges_, a);
    if (it != ranges_.begin()) {
      const direct_range& r = *std::prev(it);
      if (a >= r.base && a < r.end) return "direct";
    }
    return "hashed";
  }

  /// Accesses whose shadow state was not tracked (degraded mode).
  std::uint64_t skipped_accesses() const noexcept { return skipped_; }

  /// Number of distinct locations touched. Hashed cells materialize on
  /// first access; slab cells are pre-allocated, so only touched ones count.
  std::size_t location_count() const noexcept {
    std::size_t n = cells_.size() + retired_locations_;
    for (const direct_range& r : ranges_) {
      for (const shadow_cell& cell : r.cells) {
        if (cell.touched()) ++n;
      }
    }
    return n;
  }

  /// Total read+write accesses observed (the paper's #SharedMem).
  std::uint64_t access_count() const noexcept { return accesses_; }

  /// Mean reader-set size over all accesses (the paper's #AvgReaders).
  double average_readers() const noexcept {
    return accesses_ == 0 ? 0.0
                          : static_cast<double>(readers_sampled_) /
                                static_cast<double>(accesses_);
  }

  /// Largest reader set ever sampled (diagnostics; bounded by the number of
  /// future tasks, per the space bound of Theorem 1).
  std::uint64_t max_readers() const noexcept { return max_readers_; }

  void note_reader_count(std::size_t n) {
    if (n > max_readers_) max_readers_ = n;
  }

  const shadow_stats& stats() const noexcept { return stats_; }

  /// Approximate heap footprint: table, slabs, plus spilled reader vectors.
  std::size_t memory_bytes() const {
    std::size_t bytes = cells_.table_bytes() + slab_bytes_;
    const auto count_overflow = [&bytes](const shadow_cell& cell) {
      if (cell.overflow) {
        bytes += sizeof(*cell.overflow) +
                 cell.overflow->capacity() * sizeof(reader_entry);
      }
    };
    cells_.for_each(
        [&](const void*, const shadow_cell& cell) { count_overflow(cell); });
    for (const direct_range& r : ranges_) {
      for (const shadow_cell& cell : r.cells) count_overflow(cell);
    }
    return bytes;
  }

  /// Epoch compaction (DESIGN.md §12): frees every slab whose address range
  /// no longer overlaps a *live* registered region — the backing
  /// shared_array is gone, so no tracked access can resolve there again
  /// short of raw address reuse — and rehashes the hashed tier down to its
  /// current population. Touched retired cells keep counting in
  /// location_count() through an accumulator (exact up to address reuse,
  /// where a re-registered range restarts its count). Returns the number of
  /// slabs retired. Never touches a slab an overlapping live region is
  /// being served by, so detection state for reachable locations is intact.
  std::size_t retire_dead_slabs() {
    sync_if_stale();
    const std::vector<detail::shared_region> live =
        detail::shared_region_snapshot();
    std::size_t retired = 0;
    for (std::size_t i = 0; i < ranges_.size();) {
      direct_range& r = ranges_[i];
      // `live` is base-sorted and disjoint: of the regions starting below
      // r.end, only the last can reach past r.base.
      const auto next = std::lower_bound(
          live.begin(), live.end(), r.end,
          [](const detail::shared_region& g, std::uintptr_t key) {
            return g.base < key;
          });
      if (next != live.begin() && std::prev(next)->end > r.base) {
        ++i;
        continue;
      }
      std::size_t touched = 0;
      if (r.summary.valid) {
        // Uniform pending state: every cell is logically touched iff the
        // summary records an access (the per-cell array is stale).
        shadow_cell synth;
        synth.writer = r.summary.writer;
        synth.reader0 = r.summary.reader;
        if (synth.touched()) touched = r.cells.size();
      }
      for (shadow_cell& cell : r.cells) {
        if (!r.summary.valid && cell.touched()) ++touched;
        delete cell.overflow;
        cell.overflow = nullptr;
      }
      retired_locations_ += touched;
      slab_bytes_ -= r.cells.size() * sizeof(shadow_cell);
      // Only slabs no live region overlaps retire here, so no live entry
      // shares this key and nothing needs re-mirroring (unlike
      // retire_region).
      mirrored_regions_.erase(r.region_key);
      ranges_.erase(ranges_.begin() + static_cast<std::ptrdiff_t>(i));
      ++retired;
    }
    if (retired != 0) mru_range_ = 0;  // indices shifted under the MRU
    cells_.shrink();
    invalidate_hashed_mru();  // shrink() may rehash: cached pointers dangle
    return retired;
  }

  /// Retires the shadow identities in [addr, addr+bytes): the program freed
  /// the block, so a recycled address must start with a fresh cell instead
  /// of inheriting the dead object's access history (a false race). This is
  /// the one deliberate hole in the never-forget policy, driven by the heap
  /// hooks' region-retire events. Touched cells fold into the location
  /// accumulator, so #Locations stays live + retired. A slab overlapping
  /// the range is retired whole (its registration key is forgotten, so an
  /// identical re-registration gets a fresh slab); partially-freed slabs do
  /// not occur for heap blocks, which retire at their allocation extent.
  /// Returns the number of touched cells retired.
  std::size_t retire_region(const void* addr, std::size_t bytes) {
    if (addr == nullptr || bytes == 0) return 0;
    sync_if_stale();
    const std::uintptr_t lo = reinterpret_cast<std::uintptr_t>(addr);
    const std::uintptr_t hi = lo + bytes;
    std::size_t retired = 0;
    // Hashed tier. Cells are keyed by (canonicalized) byte addresses inside
    // the block, so for a small block probing every byte is far cheaper
    // than scanning the whole table; large blocks amortize the scan. Either
    // is skipped when no hashed key ever fell inside the block.
    std::vector<const void*> dead;
    if (hashed_keys_may_overlap(lo, hi)) {
      if (bytes <= 1024) {
        for (std::uintptr_t p = lo; p < hi; ++p) {
          const void* a = reinterpret_cast<const void*>(p);
          if (cells_.find(a) != nullptr) dead.push_back(a);
        }
      } else {
        ++stats_.migration_scans;
        cells_.for_each([&](const void* a, shadow_cell&) {
          const std::uintptr_t p = reinterpret_cast<std::uintptr_t>(a);
          if (p >= lo && p < hi) dead.push_back(a);
        });
      }
    }
    for (const void* a : dead) {
      shadow_cell* cell = cells_.find(a);
      if (cell->touched()) {
        ++retired_locations_;
        ++retired;
      }
      delete cell->overflow;
      cell->overflow = nullptr;
      cells_.erase(a);
    }
    if (!dead.empty()) after_hashed_erase();
    // Slab tier: mirror retire_dead_slabs for every overlapping slab.
    bool slabs_changed = false;
    for (std::size_t i = 0; i < ranges_.size();) {
      direct_range& r = ranges_[i];
      if (!(r.base < hi && lo < r.end)) {
        ++i;
        continue;
      }
      std::size_t touched = 0;
      if (r.summary.valid) {
        shadow_cell synth;
        synth.writer = r.summary.writer;
        synth.reader0 = r.summary.reader;
        if (synth.touched()) touched = r.cells.size();
      }
      for (shadow_cell& cell : r.cells) {
        if (!r.summary.valid && cell.touched()) ++touched;
        delete cell.overflow;
        cell.overflow = nullptr;
      }
      retired_locations_ += touched;
      retired += touched;
      slab_bytes_ -= r.cells.size() * sizeof(shadow_cell);
      // The block's registration may still be live, and then it must be
      // mirrored again: the next sync looks at every live entry, not only
      // the ones registered since the last sync.
      mirrored_regions_.erase(r.region_key);
      remirror_all_ = true;
      ranges_.erase(ranges_.begin() + static_cast<std::ptrdiff_t>(i));
      slabs_changed = true;
    }
    if (slabs_changed) mru_range_ = 0;
    return retired;
  }

  /// Calls fn(addr, cell) for every materialized hashed cell and every
  /// touched slab cell. A summarized slab presents its uniform state for
  /// every cell (the per-cell array is stale while a summary is pending).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    cells_.for_each(fn);
    for (const direct_range& r : ranges_) {
      if (r.summary.valid) {
        shadow_cell synth;
        synth.writer = r.summary.writer;
        synth.writer_site = r.summary.writer_site;
        synth.reader0 = r.summary.reader;
        synth.stamp_task = r.summary.stamp_task;
        synth.stamp_step = r.summary.stamp_step;
        for (std::size_t i = 0; i < r.cells.size(); ++i) {
          fn(reinterpret_cast<const void*>(r.base + (i << r.shift)), synth);
        }
        continue;
      }
      for (std::size_t i = 0; i < r.cells.size(); ++i) {
        if (r.cells[i].touched()) {
          fn(reinterpret_cast<const void*>(r.base + (i << r.shift)),
             r.cells[i]);
        }
      }
    }
  }

 private:
  /// One-slot MRU over the hashed tier: bulk workloads re-touch the same
  /// scalar location in bursts, and a hit skips the whole probe sequence.
  /// The cached pointer dangles whenever the map erases (backshift deletion
  /// moves *other* entries, not only the erased key — see ptr_map::erase) or
  /// rehashes, so: every erase clears the slot, and every hashed
  /// access/insert refreshes it with a pointer obtained *after* any growth.
  shadow_cell* hashed_mru(const void* addr) noexcept {
    if (addr == mru_addr_ && mru_cell_ != nullptr) {
      ++stats_.hashed_hits;
      ++stats_.mru_hits;
      return mru_cell_;
    }
    return nullptr;
  }

  /// Every hashed insert passes through here, so this also widens the
  /// table's key bounds.
  void note_hashed_cell(const void* addr, shadow_cell* cell) noexcept {
    mru_addr_ = addr;
    mru_cell_ = cell;
    const std::uintptr_t a = reinterpret_cast<std::uintptr_t>(addr);
    if (a < hashed_lo_) hashed_lo_ = a;
    if (a > hashed_hi_) hashed_hi_ = a;
  }

  void invalidate_hashed_mru() noexcept {
    mru_addr_ = nullptr;
    mru_cell_ = nullptr;
  }

  /// False when no key in [lo, hi) can be in the hashed table: the bounds
  /// span every key ever inserted (erase leaves them conservative), so a
  /// slab build or block retire outside them skips its table sweep — which
  /// otherwise costs O(table capacity) even for a reserved, empty table.
  bool hashed_keys_may_overlap(std::uintptr_t lo,
                               std::uintptr_t hi) const noexcept {
    return hashed_lo_ < hi && lo <= hashed_hi_;
  }

  void after_hashed_erase() noexcept {
    invalidate_hashed_mru();
    if (cells_.empty()) {
      hashed_lo_ = UINTPTR_MAX;
      hashed_hi_ = 0;
    }
  }

  /// Upper bound of `a` in a base-sorted slab list.
  template <typename Ranges>
  static auto first_slab_above(Ranges& ranges, std::uintptr_t a)
      -> decltype(ranges.begin()) {
    return std::upper_bound(
        ranges.begin(), ranges.end(), a,
        [](std::uintptr_t key, const direct_range& r) { return key < r.base; });
  }

  void sync_if_stale() {
    if (region_version_seen_ != detail::shared_region_version())
        [[unlikely]] {
      sync_regions();
    }
  }

  /// Resolves `addr` to its slab — one most-recently-used probe (bulk
  /// workloads stream through one array at a time), then a binary search
  /// over the base-sorted range list. Divide-and-conquer workloads
  /// (Strassen) keep hundreds of temporary-array slabs alive and alternate
  /// between them every iteration, so the miss path must be logarithmic,
  /// not linear. Callers have already synced and checked ranges_ nonempty.
  direct_range* find_slab(std::uintptr_t a) {
    direct_range& mru = ranges_[mru_range_];
    if (a >= mru.base && a < mru.end) return &mru;
    const auto it = first_slab_above(ranges_, a);
    if (it == ranges_.begin()) return nullptr;
    direct_range& r = *std::prev(it);
    if (a >= r.end) return nullptr;
    mru_range_ = static_cast<std::size_t>(std::prev(it) - ranges_.begin());
    return &r;
  }

  /// The scalar access-path lookup. A pending run summary materializes
  /// here: a scalar access into a summarized slab is exactly the
  /// "divergence" the summary cannot represent.
  shadow_cell* direct_find(const void* addr) {
    if (!direct_enabled_) return nullptr;
    sync_if_stale();
    if (ranges_.empty()) return nullptr;
    const std::uintptr_t a = reinterpret_cast<std::uintptr_t>(addr);
    direct_range* r = find_slab(a);
    if (r == nullptr) return nullptr;
    if (r->summary.valid) [[unlikely]] materialize(*r);
    return &r->cells[(a - r->base) >> r->shift];
  }

  /// Catches up with the registry: copies the base-sorted live set for
  /// span_of() and recomputes its aggregates in one pass, and runs the
  /// seen-set and slab build only for entries registered since the last
  /// sync (or for every live entry, after retire_region forgot a key).
  void sync_regions() {
    const std::uint64_t version = detail::shared_region_version();
    const std::uint64_t since = remirror_all_ ? 0 : region_version_seen_;
    // Element-geometry mirror for span_of(): the *live* regions only —
    // decomposition follows the current registration, while slabs keep
    // their never-forget policy.
    detail::shared_region_snapshot(geoms_);
    min_geom_stride_ = static_cast<std::size_t>(-1);
    geoms_aligned_ = true;
    for (const detail::shared_region& reg : geoms_) {
      if (reg.stride < min_geom_stride_) min_geom_stride_ = reg.stride;
      geoms_aligned_ = geoms_aligned_ && reg.stride != 0 &&
                       (reg.stride & (reg.stride - 1)) == 0 &&
                       (reg.base & (reg.stride - 1)) == 0;
      if (reg.version <= since) continue;
      // Seen-set keyed on the full geometry: re-registering an identical
      // range (address reuse by an identical array) silently reuses its
      // slab, while a geometry change at the same address goes through
      // try_build_slab and is rejected to the hashed path, which keeps
      // per-address location identity exact.
      if (!mirrored_regions_.insert(region_key(reg)).second) continue;
      if (direct_enabled_) try_build_slab(reg);
    }
    region_version_seen_ = version;
    remirror_all_ = false;
  }

  static std::uint64_t region_key(const detail::shared_region& reg) {
    return mix64(reg.base) ^ mix64(reg.end + 1) ^
           mix64(0x100000000ULL + reg.stride);
  }

  static std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Builds a slab for a newly registered region, or records why it stays
  /// on the hashed path. A refused slab is never degradation: the hashed
  /// tier serves the range with identical fidelity, just slower.
  void try_build_slab(const detail::shared_region& reg) {
    // Only power-of-two strides index with a shift.
    if (reg.stride == 0 || (reg.stride & (reg.stride - 1)) != 0) {
      ++stats_.slab_fallbacks;
      return;
    }
    // Slabs are disjoint and base-sorted: only the neighbours of reg.base
    // can overlap it.
    const auto next = first_slab_above(ranges_, reg.base);
    if ((next != ranges_.end() && next->base < reg.end) ||
        (next != ranges_.begin() && std::prev(next)->end > reg.base)) {
      // Overlaps a slab built for an earlier (possibly since-destroyed)
      // array. Serving two identities from one slab would corrupt cell
      // state, so the newcomer stays hashed.
      ++stats_.rejected_overlaps;
      ++stats_.slab_fallbacks;
      return;
    }
    std::uint32_t shift = 0;
    while ((1u << shift) != reg.stride) ++shift;
    // In shard mode the region is clipped to the chunks this instance owns:
    // one run of consecutively owned cells per chunk-intersection, each run
    // becoming its own slab. A cell is owned by the chunk containing its
    // base address (the element may straddle into the next chunk), which is
    // exactly the producer's routing rule, so every cell the router sends
    // here has a slab and no unowned cell ever materializes.
    struct cell_run {
      std::uintptr_t base;
      std::uintptr_t end;
    };
    support::small_vector<cell_run, 8> runs;
    if (shard_count_ <= 1) {
      runs.push_back({reg.base, reg.end});
    } else {
      const std::uintptr_t chunk = std::uintptr_t{1} << shard_shift_;
      for (std::uintptr_t c = reg.base & ~(chunk - 1); c < reg.end;
           c += chunk) {
        if (((c >> shard_shift_) % shard_count_) != shard_index_) continue;
        // Cells whose base lies in [c, c + chunk) ∩ [reg.base, reg.end).
        const std::uintptr_t lo = std::max(c, reg.base);
        const std::uintptr_t hi = std::min(c + chunk, reg.end);
        const std::uintptr_t first =
            reg.base + (lo - reg.base + reg.stride - 1) / reg.stride *
                           reg.stride;
        const std::uintptr_t last =
            reg.base + (hi - reg.base + reg.stride - 1) / reg.stride *
                           reg.stride;
        if (first < last) runs.push_back({first, last});
      }
      if (runs.empty()) return;  // nothing owned; not a fallback
    }
    std::size_t total_bytes = 0;
    for (const auto& [run_base, run_end] : runs) {
      total_bytes += (static_cast<std::size_t>(run_end - run_base) >> shift) *
                     sizeof(shadow_cell);
    }
    if (max_bytes_ != 0 &&
        slab_bytes_ + total_bytes + cells_.table_bytes() > max_bytes_) {
      ++stats_.slab_fallbacks;
      return;
    }
    if (support::alloc_should_fail(total_bytes)) {
      ++stats_.slab_fallbacks;
      return;
    }
    for (const auto& [run_base, run_end] : runs) {
      direct_range r;
      r.base = run_base;
      r.end = run_end;
      r.shift = shift;
      r.region_key = region_key(reg);
      std::size_t inserted_at = 0;
      try {
        r.cells.resize(static_cast<std::size_t>(run_end - run_base) >> shift);
        // Keep the list sorted by base so direct_find can binary-search;
        // overlap rejection above guarantees the order is total.
        const auto ins =
            ranges_.insert(first_slab_above(ranges_, r.base), std::move(r));
        inserted_at = static_cast<std::size_t>(ins - ranges_.begin());
      } catch (...) {
        ++stats_.slab_fallbacks;
        return;
      }
      mru_range_ = inserted_at;
      slab_bytes_ +=
          ranges_[inserted_at].cells.size() * sizeof(shadow_cell);
      migrate_into_slab(ranges_[inserted_at]);
    }
    ++stats_.slabs_built;
  }

  /// Moves cells the hashed tier already materialized for in-range
  /// addresses into the new slab, so a range registered after its first
  /// accesses (e.g. `assign` on a default-constructed array) keeps its
  /// shadow state. O(1) unless the table's key bounds reach into the slab.
  void migrate_into_slab(direct_range& r) {
    if (!hashed_keys_may_overlap(r.base, r.end)) return;
    ++stats_.migration_scans;
    std::vector<const void*> in_range;
    cells_.for_each([&](const void* addr, shadow_cell&) {
      const std::uintptr_t a = reinterpret_cast<std::uintptr_t>(addr);
      if (a >= r.base && a < r.end) in_range.push_back(addr);
    });
    for (const void* addr : in_range) {
      const std::uintptr_t a = reinterpret_cast<std::uintptr_t>(addr);
      // The copied cell takes ownership of the overflow pointer; erase()
      // resets the vacated slot to a default-constructed cell.
      r.cells[(a - r.base) >> r.shift] = *cells_.find(addr);
      cells_.erase(addr);
      ++stats_.migrated_cells;
    }
    // Backshift deletion relocates entries *other* than the erased keys, so
    // the MRU pointer may dangle even for an address that was never in range.
    if (!in_range.empty()) after_hashed_erase();
  }

  support::ptr_map<shadow_cell> cells_;
  std::vector<direct_range> ranges_;
  std::vector<detail::shared_region> geoms_;  // live regions, base-sorted
  std::size_t min_geom_stride_ = static_cast<std::size_t>(-1);
  bool geoms_aligned_ = true;  // all strides pow2, all bases stride-aligned
  std::unordered_set<std::uint64_t> mirrored_regions_;
  bool remirror_all_ = false;  // retire_region forgot a key: resync all
  std::size_t mru_range_ = 0;
  const void* mru_addr_ = nullptr;     // one-slot hashed-tier MRU
  shadow_cell* mru_cell_ = nullptr;
  std::uintptr_t hashed_lo_ = UINTPTR_MAX;  // min/max key ever inserted into
  std::uintptr_t hashed_hi_ = 0;            // cells_; reset once it empties
  unsigned shard_shift_ = 0;           // set_shard(): chunk size log2
  std::size_t shard_index_ = 0;
  std::size_t shard_count_ = 1;        // 1 = unsharded (inline layout)
  std::uint64_t region_version_seen_ = 0;
  std::size_t slab_bytes_ = 0;
  bool direct_enabled_ = true;
  std::size_t retired_locations_ = 0;  // touched cells of retired slabs
  std::uint64_t accesses_ = 0;
  std::uint64_t readers_sampled_ = 0;
  std::uint64_t max_readers_ = 0;
  std::uint64_t skipped_ = 0;
  std::size_t max_bytes_ = 0;  // 0 = unlimited
  bool degraded_ = false;
  shadow_stats stats_;
};

}  // namespace futrace::detect
