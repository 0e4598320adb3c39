// Unit tests for the shadow-memory layer: cell mechanics (inline reader +
// overflow), counters, and the site table.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "futrace/detect/shadow_memory.hpp"
#include "futrace/detect/shard.hpp"

namespace futrace::detect {
namespace {

// ----------------------------------------------------------------- shadow_cell

TEST(ShadowCell, StartsEmpty) {
  shadow_cell cell;
  EXPECT_EQ(cell.writer, k_invalid_task);
  EXPECT_EQ(cell.reader_count(), 0u);
  EXPECT_EQ(cell.overflow, nullptr);
}

TEST(ShadowCell, SingleReaderStaysInline) {
  shadow_cell cell;
  cell.add_reader(reader_entry{7, 1});
  EXPECT_EQ(cell.reader_count(), 1u);
  EXPECT_EQ(cell.reader_at(0).task, 7u);
  EXPECT_EQ(cell.overflow, nullptr);
}

TEST(ShadowCell, OverflowHoldsAdditionalReaders) {
  shadow_cell cell;
  for (task_id t = 1; t <= 5; ++t) cell.add_reader(reader_entry{t, 0});
  EXPECT_EQ(cell.reader_count(), 5u);
  ASSERT_NE(cell.overflow, nullptr);
  std::vector<bool> seen(6, false);
  for (std::size_t i = 0; i < cell.reader_count(); ++i) {
    seen[cell.reader_at(i).task] = true;
  }
  for (task_id t = 1; t <= 5; ++t) EXPECT_TRUE(seen[t]) << t;
  delete cell.overflow;
}

TEST(ShadowCell, RemoveInlineReaderPullsFromOverflow) {
  shadow_cell cell;
  cell.add_reader(reader_entry{1, 0});
  cell.add_reader(reader_entry{2, 0});
  cell.add_reader(reader_entry{3, 0});
  cell.remove_reader_at(0);  // removes task 1; an overflow entry fills in
  EXPECT_EQ(cell.reader_count(), 2u);
  bool saw2 = false, saw3 = false;
  for (std::size_t i = 0; i < cell.reader_count(); ++i) {
    saw2 |= cell.reader_at(i).task == 2;
    saw3 |= cell.reader_at(i).task == 3;
  }
  EXPECT_TRUE(saw2);
  EXPECT_TRUE(saw3);
  delete cell.overflow;
}

TEST(ShadowCell, RemoveDownToEmpty) {
  shadow_cell cell;
  for (task_id t = 1; t <= 3; ++t) cell.add_reader(reader_entry{t, 0});
  while (cell.reader_count() > 0) cell.remove_reader_at(0);
  EXPECT_EQ(cell.reader_count(), 0u);
  cell.add_reader(reader_entry{9, 0});  // reusable afterwards
  EXPECT_EQ(cell.reader_at(0).task, 9u);
  delete cell.overflow;
}

TEST(ShadowCell, CompactLayout) {
  EXPECT_LE(sizeof(shadow_cell), 32u)
      << "cell growth directly scales the dominant cache-miss cost; 32 bytes "
         "= two cells per cache line (24 bytes of race state + the 8-byte "
         "access stamp that powers the detector's elision fast path)";
}

// --------------------------------------------------------------- shadow_memory

TEST(ShadowMemory, CountsAccessesAndLocations) {
  shadow_memory shadow;
  int a = 0, b = 0;
  shadow.access(&a);
  shadow.access(&a);
  shadow.access(&b);
  EXPECT_EQ(shadow.access_count(), 3u);
  EXPECT_EQ(shadow.location_count(), 2u);
}

TEST(ShadowMemory, AverageReadersSamplesAtAccessTime) {
  shadow_memory shadow;
  int loc = 0;
  shadow.access(&loc);                                  // 0 readers sampled
  shadow.access(&loc).add_reader(reader_entry{1, 0});   // 0 sampled, then add
  shadow.access(&loc);                                  // 1 sampled
  shadow.access(&loc);                                  // 1 sampled
  EXPECT_DOUBLE_EQ(shadow.average_readers(), 2.0 / 4.0);
}

TEST(ShadowMemory, MaxReadersTracked) {
  shadow_memory shadow;
  int loc = 0;
  auto& cell = shadow.access(&loc);
  for (task_id t = 1; t <= 4; ++t) {
    cell.add_reader(reader_entry{t, 0});
    shadow.note_reader_count(cell.reader_count());
  }
  EXPECT_EQ(shadow.max_readers(), 4u);
}

TEST(ShadowMemory, MemoryBytesIncludesOverflow) {
  shadow_memory shadow;
  int loc = 0;
  const std::size_t before = shadow.memory_bytes();
  auto& cell = shadow.access(&loc);
  for (task_id t = 1; t <= 10; ++t) cell.add_reader(reader_entry{t, 0});
  EXPECT_GT(shadow.memory_bytes(), before);
}

TEST(ShadowMemory, OverflowFreedOnDestruction) {
  // Covered implicitly by ASAN-less builds via no crash; structurally: the
  // destructor must null out what it deletes when iterated twice.
  auto* shadow = new shadow_memory();
  int loc = 0;
  auto& cell = shadow->access(&loc);
  for (task_id t = 1; t <= 5; ++t) cell.add_reader(reader_entry{t, 0});
  delete shadow;  // must free the overflow vector
}

// ------------------------------------------------------------------ site_table

TEST(SiteTable, InternsAndResolves) {
  site_table sites;
  const site_id a = sites.intern(access_site{"alpha.cpp", 10});
  const site_id b = sites.intern(access_site{"beta.cpp", 20});
  EXPECT_NE(a, b);
  EXPECT_STREQ(sites.resolve(a).file, "alpha.cpp");
  EXPECT_EQ(sites.resolve(a).line, 10u);
  EXPECT_STREQ(sites.resolve(b).file, "beta.cpp");
}

TEST(SiteTable, SameSiteSameId) {
  site_table sites;
  const site_id a1 = sites.intern(access_site{"alpha.cpp", 10});
  const site_id other = sites.intern(access_site{"alpha.cpp", 11});
  const site_id a2 = sites.intern(access_site{"alpha.cpp", 10});
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, other);
}

TEST(SiteTable, UnknownIdResolvesToSentinel) {
  site_table sites;
  EXPECT_STREQ(sites.resolve(12345).file, "<unknown>");
}

TEST(SiteTable, HotLoopCacheDoesNotConfuseSites) {
  site_table sites;
  const site_id a = sites.intern(access_site{"f.cpp", 1});
  const site_id b = sites.intern(access_site{"f.cpp", 2});
  // Alternate to defeat/validate the one-entry cache.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(sites.intern(access_site{"f.cpp", 1}), a);
    EXPECT_EQ(sites.intern(access_site{"f.cpp", 2}), b);
  }
}

// Regression for the key construction bug: (file_ptr << 16) ^ line shifted
// away the pointer's high 16 bits, so two file pointers differing only
// there collided at the same line and one site silently aliased the other.
// The pointers below are fabricated (never dereferenced — the table only
// stores and compares them) to hit that exact collision.
TEST(SiteTable, HighPointerBitsDoNotCollide) {
  site_table sites;
  const char* f1 = reinterpret_cast<const char*>(0x0001000000001000ULL);
  const char* f2 = reinterpret_cast<const char*>(0x0002000000001000ULL);
  const site_id a = sites.intern(access_site{f1, 7});
  const site_id b = sites.intern(access_site{f2, 7});
  EXPECT_NE(a, b);
  EXPECT_EQ(sites.resolve(a).file, f1);
  EXPECT_EQ(sites.resolve(b).file, f2);
}

TEST(SiteTable, LineXorCancellationDoesNotCollide) {
  site_table sites;
  // Under the old key, (p << 16) ^ line let a line number cancel pointer
  // bits: p and p+1 with lines 10 and 10 ^ 0x10000 produced the same key.
  const char* f1 = reinterpret_cast<const char*>(0x5000);
  const char* f2 = reinterpret_cast<const char*>(0x5001);
  const site_id a = sites.intern(access_site{f1, 10});
  const site_id b = sites.intern(access_site{f2, 10u ^ 0x10000u});
  EXPECT_NE(a, b);
  EXPECT_EQ(sites.resolve(a).line, 10u);
  EXPECT_EQ(sites.resolve(b).line, 10u ^ 0x10000u);
}

// -------------------------------------------------------- direct-mapped slabs

namespace {

/// RAII registration of a buffer with the process-global region registry;
/// tests share one process, so cleanup must be unconditional.
struct region_guard {
  region_guard(const void* base, std::size_t bytes, std::size_t stride)
      : base_(base),
        ok_(futrace::detail::register_shared_region(base, bytes, stride)) {}
  ~region_guard() { futrace::detail::unregister_shared_region(base_); }
  const void* base_;
  bool ok_;
};

bool deny_all_allocs(std::size_t) noexcept { return true; }
bool deny_big_allocs(std::size_t bytes) noexcept { return bytes > 1024; }

struct gate_guard {
  explicit gate_guard(futrace::support::alloc_gate_fn fn) {
    futrace::support::alloc_gate().store(fn);
  }
  ~gate_guard() { futrace::support::alloc_gate().store(nullptr); }
};

}  // namespace

TEST(DirectShadow, RegisteredRangeServedFromSlab) {
  std::vector<int> buf(64);
  region_guard reg(buf.data(), buf.size() * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg.ok_);

  shadow_memory shadow;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    shadow_cell* cell = shadow.try_access(&buf[i]);
    ASSERT_NE(cell, nullptr);
    cell->writer = static_cast<task_id>(i);
  }
  EXPECT_EQ(shadow.stats().slabs_built, 1u);
  EXPECT_EQ(shadow.stats().direct_hits, buf.size());
  EXPECT_EQ(shadow.stats().hashed_hits, 0u);
  EXPECT_EQ(shadow.location_count(), buf.size());
  // Re-access resolves to the same cell (state persists).
  EXPECT_EQ(shadow.try_access(&buf[5])->writer, 5u);
}

TEST(DirectShadow, ScalarAccessesStayHashed) {
  std::vector<int> buf(16);
  region_guard reg(buf.data(), buf.size() * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg.ok_);

  shadow_memory shadow;
  int scalar = 0;
  shadow.try_access(&buf[0])->writer = 1;
  shadow.try_access(&scalar)->writer = 2;
  EXPECT_EQ(shadow.stats().direct_hits, 1u);
  EXPECT_EQ(shadow.stats().hashed_hits, 1u);
  EXPECT_EQ(shadow.location_count(), 2u);
}

TEST(DirectShadow, LateRegistrationMigratesHashedCells) {
  std::vector<int> buf(32);
  shadow_memory shadow;
  // Touch two elements before the range is registered: they materialize in
  // the hashed tier.
  shadow.try_access(&buf[3])->writer = 33;
  shadow.try_access(&buf[9])->writer = 99;
  EXPECT_EQ(shadow.stats().hashed_hits, 2u);

  region_guard reg(buf.data(), buf.size() * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg.ok_);
  // The next in-range access builds the slab and migrates existing cells;
  // their shadow state must survive the move.
  shadow_cell* cell = shadow.try_access(&buf[3]);
  EXPECT_EQ(shadow.stats().migrated_cells, 2u);
  EXPECT_EQ(cell->writer, 33u);
  EXPECT_EQ(shadow.try_access(&buf[9])->writer, 99u);
  EXPECT_EQ(shadow.location_count(), 2u);
}

TEST(DirectShadow, GeometryChangeAtSameAddressIsRejected) {
  std::vector<double> buf(16);
  shadow_memory shadow;
  {
    region_guard reg(buf.data(), buf.size() * sizeof(double), sizeof(double));
    ASSERT_TRUE(reg.ok_);
    shadow.try_access(&buf[0]);
    EXPECT_EQ(shadow.stats().slabs_built, 1u);
  }
  // Same base address, different stride: serving it from the old slab would
  // merge distinct locations, so the newcomer must stay on the hashed path.
  region_guard reg2(buf.data(), buf.size() * sizeof(double), 4);
  ASSERT_TRUE(reg2.ok_);
  shadow.try_access(&buf[1]);
  EXPECT_EQ(shadow.stats().rejected_overlaps, 1u);
  EXPECT_EQ(shadow.stats().slabs_built, 1u);
}

TEST(DirectShadow, NonPowerOfTwoStrideFallsBack) {
  struct odd {
    char bytes[12];
  };
  std::vector<odd> buf(8);
  region_guard reg(buf.data(), buf.size() * sizeof(odd), sizeof(odd));
  ASSERT_TRUE(reg.ok_);

  shadow_memory shadow;
  shadow.try_access(&buf[0]);
  EXPECT_EQ(shadow.stats().slab_fallbacks, 1u);
  EXPECT_EQ(shadow.stats().slabs_built, 0u);
  EXPECT_EQ(shadow.stats().hashed_hits, 1u);
  EXPECT_FALSE(shadow.degraded());
}

TEST(DirectShadow, ByteCapRefusesSlabWithoutDegrading) {
  std::vector<int> buf(4096);  // slab would need 4096 * sizeof(shadow_cell)
  region_guard reg(buf.data(), buf.size() * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg.ok_);

  shadow_memory shadow;
  shadow.set_max_bytes(64 * 1024);
  shadow.try_access(&buf[0]);
  EXPECT_EQ(shadow.stats().slab_fallbacks, 1u);
  EXPECT_EQ(shadow.stats().slabs_built, 0u);
  // A refused slab is a fallback, not degradation: the hashed tier serves
  // the range with full fidelity until the cap itself is hit.
  EXPECT_FALSE(shadow.degraded());
  EXPECT_EQ(shadow.stats().hashed_hits, 1u);
}

TEST(DirectShadow, AllocGateRefusesSlabWithoutDegrading) {
  std::vector<int> buf(1024);  // slab allocation > 1 KiB, cells are not
  region_guard reg(buf.data(), buf.size() * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg.ok_);

  gate_guard gate(deny_big_allocs);
  shadow_memory shadow;
  for (int i = 0; i < 8; ++i) shadow.try_access(&buf[i]);
  EXPECT_EQ(shadow.stats().slab_fallbacks, 1u);
  EXPECT_EQ(shadow.stats().direct_hits, 0u);
  EXPECT_EQ(shadow.stats().hashed_hits, 8u);
  EXPECT_FALSE(shadow.degraded());
}

// ------------------------------------------------- reader overflow alloc gate

TEST(ShadowCell, OverflowAllocationRefusalDropsReader) {
  shadow_cell cell;
  EXPECT_TRUE(cell.add_reader(reader_entry{1, 0}));  // inline, no allocation
  {
    gate_guard gate(deny_all_allocs);
    EXPECT_FALSE(cell.add_reader(reader_entry{2, 0}));
    EXPECT_EQ(cell.reader_count(), 1u);
  }
  // Gate lifted: the overflow vector can materialize again.
  EXPECT_TRUE(cell.add_reader(reader_entry{3, 0}));
  EXPECT_EQ(cell.reader_count(), 2u);
  delete cell.overflow;
}

// ------------------------------------------------------- hashed-tier MRU slot

TEST(HashedMru, RepeatAccessServedFromMruSlot) {
  shadow_memory shadow;
  int scalar = 0;
  shadow_cell* first = shadow.try_access(&scalar);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(shadow.stats().mru_hits, 0u);  // cold: full probe + insert
  shadow_cell* again = shadow.try_access(&scalar);
  EXPECT_EQ(again, first);
  EXPECT_EQ(shadow.stats().mru_hits, 1u);
  // A different address misses the MRU and repoints it.
  int other = 0;
  shadow.try_access(&other);
  EXPECT_EQ(shadow.stats().mru_hits, 1u);
  shadow.try_access(&other);
  EXPECT_EQ(shadow.stats().mru_hits, 2u);
}

TEST(HashedMru, AccessVariantAlsoUsesMru) {
  shadow_memory shadow;
  int scalar = 0;
  shadow.access(&scalar).writer = 42;
  EXPECT_EQ(shadow.access(&scalar).writer, 42u);
  EXPECT_GE(shadow.stats().mru_hits, 1u);
}

// Regression: migrate_into_slab erases migrated keys from the hashed map,
// and ptr_map's backshift deletion relocates *other* entries — including,
// possibly, the cell the MRU slot points at. The erase must invalidate the
// MRU, or the next access to the cached address reads a dangling pointer.
TEST(HashedMru, InvalidatedWhenMigrationErasesHashedCells) {
  std::vector<int> buf(32);
  shadow_memory shadow;
  int scalar = 0;
  // Populate the hashed tier: array cells (pre-registration) plus a scalar.
  shadow.try_access(&buf[3])->writer = 3;
  shadow.try_access(&buf[9])->writer = 9;
  shadow.try_access(&scalar)->writer = 77;  // MRU now caches the scalar cell

  region_guard reg(buf.data(), buf.size() * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg.ok_);
  // First in-range access builds the slab and erases the two migrated keys
  // from the hashed map (backshift may relocate the scalar's cell).
  EXPECT_EQ(shadow.try_access(&buf[3])->writer, 3u);
  EXPECT_EQ(shadow.stats().migrated_cells, 2u);

  // The scalar's shadow state must be found through a fresh lookup, not a
  // cached pointer into the pre-erase table layout.
  shadow_cell* cell = shadow.try_access(&scalar);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->writer, 77u);
  EXPECT_EQ(shadow.try_access(&buf[9])->writer, 9u);
}

TEST(HashedMru, TableGrowthRefreshesBeforeNextHit) {
  // Interleave one hot scalar with enough cold inserts to force rehashes;
  // every insert repoints the MRU at a post-growth pointer, so the hot
  // address must always resolve to live, correct state.
  shadow_memory shadow;
  int hot = 0;
  shadow.try_access(&hot)->writer = 123;
  std::vector<int> cold(4096);
  for (std::size_t i = 0; i < cold.size(); ++i) {
    shadow.try_access(&cold[i])->writer = static_cast<task_id>(i);
    ASSERT_EQ(shadow.try_access(&hot)->writer, 123u) << "after insert " << i;
  }
}

// ------------------------------------------- registration cost (key bounds)

// A reserved hashed table is large and, on array workloads, empty. Building
// a slab must not sweep it: with no hashed key near the new range the
// migration check is O(1), however many arrays register.
TEST(MigrationScans, ReservedEmptyShadowNeverScans) {
  constexpr std::size_t kArrays = 2000;
  std::vector<std::vector<int>> arrays(kArrays, std::vector<int>(8));
  shadow_memory shadow;
  shadow.reserve(3 * 256 * 256);
  for (std::vector<int>& a : arrays) {
    ASSERT_TRUE(futrace::detail::register_shared_region(
        a.data(), a.size() * sizeof(int), sizeof(int)));
    shadow.try_access(&a[0]);
  }
  EXPECT_EQ(shadow.stats().slabs_built, kArrays);
  EXPECT_EQ(shadow.stats().migration_scans, 0u);
  EXPECT_EQ(shadow.stats().hashed_hits, 0u);
  for (std::vector<int>& a : arrays) {
    EXPECT_TRUE(futrace::detail::unregister_shared_region(a.data()));
  }
}

TEST(MigrationScans, HashedCellsOutsideNewRangesSkipTheScan) {
  std::vector<int> buf(256);
  shadow_memory shadow;
  // Hashed cells in the middle of the buffer, never registered.
  shadow.try_access(&buf[100])->writer = 1;
  shadow.try_access(&buf[101])->writer = 2;
  // New ranges strictly below and strictly above them.
  region_guard low(&buf[0], 64 * sizeof(int), sizeof(int));
  region_guard high(&buf[128], 64 * sizeof(int), sizeof(int));
  ASSERT_TRUE(low.ok_);
  ASSERT_TRUE(high.ok_);
  shadow.try_access(&buf[0]);
  shadow.try_access(&buf[128]);
  EXPECT_EQ(shadow.stats().slabs_built, 2u);
  EXPECT_EQ(shadow.stats().migration_scans, 0u);
  EXPECT_EQ(shadow.stats().migrated_cells, 0u);
  EXPECT_EQ(shadow.try_access(&buf[100])->writer, 1u);
}

TEST(MigrationScans, HashedCellInsideLateRangeScansOnce) {
  std::vector<int> buf(256);
  shadow_memory shadow;
  shadow.try_access(&buf[10])->writer = 10;    // inside the late range
  shadow.try_access(&buf[100])->writer = 100;  // outside it
  region_guard reg(&buf[0], 64 * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg.ok_);
  EXPECT_EQ(shadow.try_access(&buf[10])->writer, 10u);
  EXPECT_EQ(shadow.stats().migration_scans, 1u);
  EXPECT_EQ(shadow.stats().migrated_cells, 1u);
  // The outside cell stays hashed with its state.
  const std::uint64_t hashed_before = shadow.stats().hashed_hits;
  EXPECT_EQ(shadow.try_access(&buf[100])->writer, 100u);
  EXPECT_EQ(shadow.stats().hashed_hits, hashed_before + 1);
  // Erase left the bounds at [buf[10], buf[100]]: a range above them still
  // builds without a scan.
  region_guard above(&buf[128], 64 * sizeof(int), sizeof(int));
  ASSERT_TRUE(above.ok_);
  shadow.try_access(&buf[128]);
  EXPECT_EQ(shadow.stats().slabs_built, 2u);
  EXPECT_EQ(shadow.stats().migration_scans, 1u);
}

TEST(MigrationScans, BoundsResetWhenTableEmpties) {
  std::vector<int> buf(256);
  shadow_memory shadow;
  shadow.try_access(&buf[10])->writer = 10;
  shadow.try_access(&buf[200])->writer = 200;
  region_guard low(&buf[0], 64 * sizeof(int), sizeof(int));
  region_guard high(&buf[192], 64 * sizeof(int), sizeof(int));
  ASSERT_TRUE(low.ok_);
  ASSERT_TRUE(high.ok_);
  shadow.try_access(&buf[10]);  // one sync builds both slabs
  EXPECT_EQ(shadow.stats().migration_scans, 2u);
  EXPECT_EQ(shadow.stats().migrated_cells, 2u);
  // The table is empty again, so a range between the old keys is O(1).
  region_guard mid(&buf[64], 64 * sizeof(int), sizeof(int));
  ASSERT_TRUE(mid.ok_);
  shadow.try_access(&buf[64]);
  EXPECT_EQ(shadow.stats().slabs_built, 3u);
  EXPECT_EQ(shadow.stats().migration_scans, 2u);
  EXPECT_EQ(shadow.try_access(&buf[200])->writer, 200u);
}

// retire_region forgets a slab's registration even while it is still live;
// the next sync must re-mirror it (not only entries registered since the
// last sync), as a sync over every live entry always did.
TEST(MigrationScans, RetiredLiveRegistrationIsRebuiltOnNextSync) {
  std::vector<int> buf(64), other(64);
  region_guard reg(buf.data(), buf.size() * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg.ok_);
  shadow_memory shadow;
  shadow.try_access(&buf[0]);
  EXPECT_EQ(shadow.stats().slabs_built, 1u);
  shadow.retire_region(buf.data(), buf.size() * sizeof(int));
  shadow.try_access(&buf[1])->writer = 7;  // no version change: hashed
  EXPECT_EQ(shadow.stats().direct_hits, 1u);
  region_guard reg2(other.data(), other.size() * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg2.ok_);
  shadow.try_access(&other[0]);
  EXPECT_EQ(shadow.stats().slabs_built, 3u);  // buf again, then other
  EXPECT_EQ(shadow.stats().migrated_cells, 1u);
  EXPECT_EQ(shadow.try_access(&buf[1])->writer, 7u);
  EXPECT_EQ(shadow.stats().direct_hits, 3u);
}

// ------------------------------------------------ sorted region registry

namespace {

/// The registry entries inside [lo, hi), in snapshot order.
std::vector<futrace::detail::shared_region> entries_within(const void* lo,
                                                           const void* hi) {
  std::vector<futrace::detail::shared_region> out;
  for (const auto& r : futrace::detail::shared_region_snapshot()) {
    if (r.base >= reinterpret_cast<std::uintptr_t>(lo) &&
        r.end <= reinterpret_cast<std::uintptr_t>(hi)) {
      out.push_back(r);
    }
  }
  return out;
}

}  // namespace

TEST(RegionRegistry, SnapshotStaysBaseSortedUnderInterleaving) {
  using futrace::detail::register_shared_region;
  using futrace::detail::unregister_shared_region;
  std::vector<std::uint64_t> buf(64);
  const auto slot = [&](std::size_t i) { return &buf[i * 4]; };
  // Register out of address order, drop some, add more.
  for (std::size_t i : {7u, 2u, 11u, 0u, 5u, 14u, 9u}) {
    ASSERT_TRUE(register_shared_region(slot(i), 32, 8)) << i;
  }
  EXPECT_TRUE(unregister_shared_region(slot(2)));
  EXPECT_TRUE(unregister_shared_region(slot(14)));
  for (std::size_t i : {3u, 15u, 1u}) {
    ASSERT_TRUE(register_shared_region(slot(i), 32, 8)) << i;
  }
  EXPECT_TRUE(unregister_shared_region(slot(9)));
  const auto snap = entries_within(buf.data(), buf.data() + buf.size());
  std::vector<std::uintptr_t> bases;
  for (const auto& r : snap) bases.push_back(r.base);
  std::vector<std::uintptr_t> expected;
  for (std::size_t i : {0u, 1u, 3u, 5u, 7u, 11u, 15u}) {
    expected.push_back(reinterpret_cast<std::uintptr_t>(slot(i)));
  }
  EXPECT_EQ(bases, expected);
  for (std::size_t i : {0u, 1u, 3u, 5u, 7u, 11u, 15u}) {
    EXPECT_TRUE(unregister_shared_region(slot(i))) << i;
  }
  EXPECT_TRUE(entries_within(buf.data(), buf.data() + buf.size()).empty());
}

TEST(RegionRegistry, OverlapRejectedAtEitherNeighbour) {
  std::vector<char> buf(512);
  char* b = buf.data();
  region_guard left(b + 100, 100, 4);   // [100, 200)
  region_guard right(b + 300, 100, 4);  // [300, 400)
  ASSERT_TRUE(left.ok_);
  ASSERT_TRUE(right.ok_);
  using futrace::detail::register_shared_region;
  EXPECT_FALSE(register_shared_region(b + 150, 100, 4));  // left neighbour
  EXPECT_FALSE(register_shared_region(b + 250, 100, 4));  // right neighbour
  EXPECT_FALSE(register_shared_region(b + 50, 400, 4));   // encloses both
  EXPECT_FALSE(register_shared_region(b + 120, 10, 4));   // inside left
  EXPECT_EQ(entries_within(b, b + buf.size()).size(), 2u);
  // The exact gap between them fits.
  region_guard gap(b + 200, 100, 4);
  EXPECT_TRUE(gap.ok_);
  EXPECT_EQ(entries_within(b, b + buf.size()).size(), 3u);
}

TEST(RegionRegistry, MiddleUnregisterAndBadUnregisters) {
  using futrace::detail::register_shared_region;
  using futrace::detail::unregister_shared_region;
  std::vector<char> buf(96);
  char* b = buf.data();
  ASSERT_TRUE(register_shared_region(b, 32, 4));
  ASSERT_TRUE(register_shared_region(b + 32, 32, 4));
  ASSERT_TRUE(register_shared_region(b + 64, 32, 4));
  EXPECT_TRUE(unregister_shared_region(b + 32));
  EXPECT_FALSE(unregister_shared_region(b + 32)) << "double unregister";
  EXPECT_FALSE(unregister_shared_region(b + 4)) << "interior pointer";
  EXPECT_FALSE(unregister_shared_region(b + 48)) << "inside the freed hole";
  const auto snap = entries_within(b, b + buf.size());
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].base, reinterpret_cast<std::uintptr_t>(b));
  EXPECT_EQ(snap[1].base, reinterpret_cast<std::uintptr_t>(b + 64));
  EXPECT_LT(snap[0].version, snap[1].version);  // registration order
  // The hole takes a new registration.
  EXPECT_TRUE(register_shared_region(b + 32, 32, 8));
  EXPECT_TRUE(unregister_shared_region(b));
  EXPECT_TRUE(unregister_shared_region(b + 32));
  EXPECT_TRUE(unregister_shared_region(b + 64));
}

TEST(RegionRegistry, EntriesCarryVersionAndSyncFollowsTheLiveSet) {
  using futrace::detail::register_shared_region;
  using futrace::detail::shared_region_version;
  using futrace::detail::unregister_shared_region;
  alignas(64) static unsigned char buf[1024];
  const auto at = [](const unsigned char* p) {
    return reinterpret_cast<std::uintptr_t>(p);
  };
  const std::uint64_t before = shared_region_version();
  ASSERT_TRUE(register_shared_region(buf + 512, 64, 8));
  ASSERT_TRUE(register_shared_region(buf, 64, 8));
  ASSERT_TRUE(unregister_shared_region(buf));
  ASSERT_TRUE(register_shared_region(buf + 256, 60, 12));  // irregular
  // Each entry keeps the version its own registration produced.
  const auto snap = entries_within(buf, buf + sizeof(buf));
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].base, at(buf + 256));
  EXPECT_EQ(snap[0].version, before + 4);
  EXPECT_EQ(snap[1].base, at(buf + 512));
  EXPECT_EQ(snap[1].version, before + 1);
  EXPECT_EQ(shared_region_version(), before + 4);

  shadow_memory shadow;
  // The irregular region clears the aligned fast bail: an aligned 8-byte
  // load at byte 8 still straddles its first two 12-byte elements.
  auto span = shadow.span_of(buf + 264, 8);
  EXPECT_EQ(span.first, buf + 256);
  EXPECT_EQ(span.count, 2u);
  EXPECT_EQ(span.stride, 12u);
  const std::uint64_t built = shadow.stats().slabs_built;
  // Dropping it restores the fast bail; registering one more region builds
  // exactly one more slab on the next sync.
  ASSERT_TRUE(unregister_shared_region(buf + 256));
  ASSERT_TRUE(register_shared_region(buf + 640, 64, 8));
  span = shadow.span_of(buf + 264, 8);
  EXPECT_EQ(span.first, buf + 264);
  EXPECT_EQ(span.count, 1u);
  EXPECT_EQ(shadow.stats().slabs_built, built + 1);
  // A power-of-two stride on a misaligned base clears the fast bail too:
  // an aligned 4-byte load at byte 776 sits in the element at byte 772.
  ASSERT_TRUE(register_shared_region(buf + 772, 64, 8));
  span = shadow.span_of(buf + 776, 4);
  EXPECT_EQ(span.first, buf + 772);
  EXPECT_EQ(span.count, 1u);
  EXPECT_EQ(span.stride, 8u);
  EXPECT_TRUE(unregister_shared_region(buf + 512));
  EXPECT_TRUE(unregister_shared_region(buf + 640));
  EXPECT_TRUE(unregister_shared_region(buf + 772));
}

TEST(RegionRegistry, SpanOfFollowsInterleavedRegistrations) {
  using futrace::detail::register_shared_region;
  using futrace::detail::unregister_shared_region;
  alignas(16) static unsigned char buf[256];
  shadow_memory shadow;
  ASSERT_TRUE(register_shared_region(buf + 128, 64, 8));
  ASSERT_TRUE(register_shared_region(buf, 64, 8));
  ASSERT_TRUE(register_shared_region(buf + 64, 64, 16));
  (void)shadow.span_of(buf, 1);  // sync the three-region layout
  EXPECT_TRUE(unregister_shared_region(buf + 64));
  ASSERT_TRUE(register_shared_region(buf + 64, 64, 4));  // new geometry
  // An 8-byte load at byte 66 straddles three 4-byte elements of the
  // re-registered middle region.
  auto span = shadow.span_of(buf + 66, 8);
  EXPECT_EQ(span.first, buf + 64);
  EXPECT_EQ(span.count, 3u);
  EXPECT_EQ(span.stride, 4u);
  // A 16-byte load at byte 132 in the last region covers three elements.
  span = shadow.span_of(buf + 132, 16);
  EXPECT_EQ(span.first, buf + 128);
  EXPECT_EQ(span.count, 3u);
  EXPECT_EQ(span.stride, 8u);
  EXPECT_TRUE(unregister_shared_region(buf));
  // Unregistered: no decomposition.
  span = shadow.span_of(buf + 4, 8);
  EXPECT_EQ(span.first, buf + 4);
  EXPECT_EQ(span.count, 1u);
  EXPECT_TRUE(unregister_shared_region(buf + 64));
  EXPECT_TRUE(unregister_shared_region(buf + 128));
}

// --------------------------------------------------------- shard-clipped slabs

TEST(DirectShadowShard, SlabClippedToOwnedChunks) {
  std::vector<int> buf(256);  // 1 KiB: spans several 64-byte chunks
  region_guard reg(buf.data(), buf.size() * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg.ok_);

  constexpr unsigned kShift = 6;
  constexpr std::size_t kShards = 2;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    shadow_memory shadow;
    shadow.set_shard(kShift, shard, kShards);
    std::size_t owned = 0;
    for (std::size_t i = 0; i < buf.size(); ++i) {
      if (shard_of(&buf[i], kShift, kShards) != shard) continue;
      ++owned;
      shadow_cell* cell = shadow.try_access(&buf[i]);
      ASSERT_NE(cell, nullptr);
      cell->writer = static_cast<task_id>(i);
    }
    ASSERT_GT(owned, 0u);
    // Every owned cell is served by a clipped slab — never the hashed tier.
    EXPECT_EQ(shadow.stats().direct_hits, owned) << "shard " << shard;
    EXPECT_EQ(shadow.stats().hashed_hits, 0u) << "shard " << shard;
    EXPECT_EQ(shadow.stats().slabs_built, 1u) << "shard " << shard;
    EXPECT_EQ(shadow.location_count(), owned) << "shard " << shard;
    // State persists across re-access.
    for (std::size_t i = 0; i < buf.size(); ++i) {
      if (shard_of(&buf[i], kShift, kShards) != shard) continue;
      EXPECT_EQ(shadow.try_access(&buf[i])->writer, static_cast<task_id>(i));
      break;
    }
  }
}

TEST(DirectShadowShard, ShardsPartitionTheRegion) {
  std::vector<int> buf(128);
  region_guard reg(buf.data(), buf.size() * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg.ok_);

  constexpr unsigned kShift = 6;
  constexpr std::size_t kShards = 4;
  std::size_t covered = 0;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    shadow_memory shadow;
    shadow.set_shard(kShift, shard, kShards);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      if (shard_of(&buf[i], kShift, kShards) != shard) continue;
      ASSERT_NE(shadow.try_access(&buf[i]), nullptr);
      ++covered;
    }
  }
  EXPECT_EQ(covered, buf.size());  // every element owned exactly once
}

}  // namespace
}  // namespace futrace::detect
