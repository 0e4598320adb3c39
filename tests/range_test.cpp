// Tests for the bulk-access layer: mixed-size scalar accesses that straddle
// several shadow strides (the size-decomposition regression from the range
// work), and the slab run-summary lifecycle (establishment, O(1) re-sweep
// hits, materialization back to per-cell state on divergence).
//
// Soundness contract under test: a scalar access of `size` bytes into a
// registered region of stride `s` must be checked against every element it
// overlaps — not just the first — and every configuration (ranges on,
// --no-ranges, --no-fastpath) must agree on the racy-location set.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "futrace/detect/race_detector.hpp"
#include "futrace/runtime/runtime.hpp"
#include "futrace/runtime/shared.hpp"

namespace futrace {
namespace {

std::set<const void*> racy_set(const detect::race_detector& det) {
  const auto locations = det.racy_locations();
  return {locations.begin(), locations.end()};
}

detect::race_detector::options config(bool fastpath, bool ranges) {
  detect::race_detector::options opts;
  opts.enable_fastpath = fastpath;
  opts.enable_range_checks = ranges;
  return opts;
}

template <typename Body>
detect::race_detector run_detected(detect::race_detector::options opts,
                                   Body&& body) {
  detect::race_detector det(opts);
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run(body);
  return det;
}

/// All three configurations on one program; returns the ranges-on detector
/// after asserting the racy sets agree.
template <typename Body>
detect::race_detector run_all_configs(Body&& body) {
  auto ranged = run_detected(config(true, true), body);
  auto scalar = run_detected(config(true, false), body);
  auto plain = run_detected(config(false, true), body);
  EXPECT_EQ(racy_set(ranged), racy_set(scalar)) << "ranges on vs --no-ranges";
  EXPECT_EQ(racy_set(ranged), racy_set(plain)) << "ranges on vs --no-fastpath";
  return ranged;
}

// ----------------------------------------------------------- mixed-size sizes

// Regression: an 8-byte scalar access into a byte array spans eight shadow
// strides. The detector must check all eight locations — under-checking
// here silently dropped seven racy cells before size decomposition existed.
TEST(MixedSizeAccess, WideScalarReadChecksEveryElement) {
  auto program = [] {
    shared_array<std::uint8_t> bytes(64, 0);
    auto f = async_future([&] {
      for (std::size_t i = 0; i < 8; ++i) {
        bytes.write(i, static_cast<std::uint8_t>(i));
      }
    });
    // One word-sized load covering bytes 0..7, as compiled field/array
    // accesses wider than the element stride would produce.
    detail::instrument_read(bytes.address(0), 8,
                            std::source_location::current());
    f.get();
  };
  auto det = run_all_configs(program);
  EXPECT_TRUE(det.race_detected());
  EXPECT_EQ(det.counters().racy_locations, 8u)
      << "every byte under the wide load must be flagged, not just the first";
}

TEST(MixedSizeAccess, WideScalarWriteChecksEveryElement) {
  auto program = [] {
    shared_array<std::uint32_t> words(16, 0);
    auto f = async_future([&] {
      (void)words.read(0);
      (void)words.read(1);
      (void)words.read(5);  // outside the wide store: must stay race-free
    });
    // An 8-byte store over elements 0 and 1.
    detail::instrument_write(words.address(0), 8,
                             std::source_location::current());
    f.get();
  };
  auto det = run_all_configs(program);
  EXPECT_TRUE(det.race_detected());
  EXPECT_EQ(det.counters().racy_locations, 2u);
}

// An access that straddles an element boundary without covering either
// element fully still conflicts with both.
TEST(MixedSizeAccess, UnalignedStraddleCoversBothElements) {
  auto program = [] {
    shared_array<std::uint32_t> words(8, 0);
    auto f = async_future([&] {
      words.write(0, 1);
      words.write(1, 2);
    });
    const void* mid =
        static_cast<const char*>(words.address(0)) + 2;  // bytes 2..5
    detail::instrument_read(mid, 4, std::source_location::current());
    f.get();
  };
  auto det = run_all_configs(program);
  EXPECT_TRUE(det.race_detected());
  EXPECT_EQ(det.counters().racy_locations, 2u);
}

// The region registry stays base-sorted while arrays come and go in any
// order; straddling accesses must still decompose against the live geometry
// of whichever array they hit, including one registered after a middle
// entry was dropped.
TEST(MixedSizeAccess, StraddleDecomposesAfterRegistryChurn) {
  auto program = [] {
    shared_array<std::uint32_t> words(16, 0);
    shared_array<std::uint8_t> doomed(64, 0);
    shared_array<std::uint16_t> halves(16, 0);
    doomed.assign(0);  // unregisters the middle-aged entry
    shared_array<std::uint8_t> bytes(64, 0);
    words.assign(32, 0);  // re-registers at a new address
    auto f = async_future([&] {
      for (std::size_t i = 0; i < 4; ++i) bytes.write(i, 1);
      halves.write(1, 1);
      halves.write(2, 1);
      words.write(5, 1);
    });
    // Bytes 0..3 of `bytes`; bytes 2..5 of `halves` (elements 1 and 2);
    // bytes 20..27 of `words` (elements 5 and 6).
    detail::instrument_read(bytes.address(0), 4,
                            std::source_location::current());
    detail::instrument_read(
        static_cast<const char*>(halves.address(0)) + 2, 4,
        std::source_location::current());
    detail::instrument_read(words.address(5), 8,
                            std::source_location::current());
    f.get();
  };
  // Heap placement of the churned arrays differs between runs, so compare
  // counts per configuration rather than racy address sets.
  for (const auto& [fastpath, ranges] :
       {std::pair{true, true}, std::pair{true, false},
        std::pair{false, true}}) {
    auto det = run_detected(config(fastpath, ranges), program);
    EXPECT_EQ(det.counters().racy_locations, 7u)
        << "fastpath=" << fastpath << " ranges=" << ranges;
  }
}

// Element-sized accesses must keep taking the one-cell path: no behavioural
// change for the overwhelmingly common case.
TEST(MixedSizeAccess, ElementSizedAccessStaysScalar) {
  auto det = run_detected(config(true, true), [] {
    shared_array<std::uint32_t> words(8, 0);
    finish([&] {
      async([&] { words.write(3, 7); });
    });
    (void)words.read(3);
  });
  EXPECT_FALSE(det.race_detected());
  EXPECT_EQ(det.counters().range_events, 0u);
}

// ------------------------------------------------------------- run summaries

// After an unjoined future bulk-writes a whole array, a scalar read into the
// middle must materialize the slab summary back to per-cell state and still
// report the race on exactly the touched cell.
TEST(RangeSummary, ScalarAccessMaterializesAndKeepsVerdict) {
  auto program = [] {
    shared_array<int> data(128, 0);
    auto f = async_future([&] {
      const auto out = data.write_all();
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = static_cast<int>(i);
      }
    });
    (void)data.read(64);  // races with the unjoined bulk writer
    f.get();
  };
  auto det = run_all_configs(program);
  EXPECT_TRUE(det.race_detected());
  EXPECT_EQ(det.counters().racy_locations, 1u);
}

// A partial range into a summarized slab materializes too; with the writer
// joined, no races appear and later full sweeps still work.
TEST(RangeSummary, PartialRangeAfterSummaryStaysRaceFree) {
  auto det = run_detected(config(true, true), [] {
    shared_array<int> data(128, 0);
    finish([&] {
      async([&] {
        const auto out = data.write_all();
        for (std::size_t i = 0; i < out.size(); ++i) {
          out[i] = static_cast<int>(i);
        }
      });
    });
    long sum = 0;
    const auto part = data.read_range(10, 50);
    for (const int v : part) sum += v;
    const auto all = data.read_all();
    for (const int v : all) sum += v;
    (void)sum;
  });
  EXPECT_FALSE(det.race_detected());
  EXPECT_EQ(det.counters().reads, 50u + 128u);
  EXPECT_EQ(det.counters().writes, 128u);
}

// Interleaved full-array sweeps by ordered tasks: each sweep after the first
// should be answered by the summary tier in O(1) graph work.
TEST(RangeSummary, OrderedFullSweepsHitSummaryTier) {
  auto det = run_detected(config(true, true), [] {
    shared_array<double> grid(512, 0.0);
    for (int pass = 0; pass < 4; ++pass) {
      finish([&] {
        async([&] {
          const auto out = grid.write_all();
          for (std::size_t i = 0; i < out.size(); ++i) {
            out[i] = static_cast<double>(pass) + static_cast<double>(i);
          }
        });
      });
    }
  });
  EXPECT_FALSE(det.race_detected());
  const auto c = det.counters();
  EXPECT_GT(c.summary_hits, 0u)
      << "iterated full-slab writes must use the O(1) summary update";
  EXPECT_EQ(c.writes, 4u * 512u);
}

}  // namespace
}  // namespace futrace
