// One stable LSD radix sort for the traversal and wire path: BFS fringes
// and pair sets in the vertex codec, grDB's chain-walk stages and
// prefetch lists, MS-BFS's next frontier.  Every one of those orders ids
// (or groups a block's cursors), so an unsigned 64-bit key per item is a
// total order on what matters, and eight-bit digits sort it in at most
// eight linear passes instead of n log n comparisons.
//
// - One pass finds the digits on which some keys differ, one counting
//   pass fills their histograms; a digit on which every key agrees costs
//   no scatter pass (ids below 2^16 take two, a single-source MS-BFS
//   mask none).
// - Passes scatter stably between `items` and a scratch vector
//   allocated per call; the result ends in `items`' own buffer.
//   Nothing is kept between calls.
// - Below kRadixSortCutoff items a stable comparison sort on the same
//   key is cheaper than clearing and scanning the histograms.
//
// Stable for every size: items with equal keys keep their input order,
// which is what lets two calls sort pairs lexicographically (by the
// second component, then stably by the first).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mssg {

/// Size below which radix_sort falls back to std::stable_sort.  In
/// bench_micro_storage's BM_SortCutoff rows (ids below 60k) the stable
/// sort wins at 128 ids and the radix passes win from 256 on.
inline constexpr std::size_t kRadixSortCutoff = 256;

namespace detail {

/// The radix passes alone, for every n (radix_sort adds the cutoff).
template <typename T, typename Key>
void lsd_radix_sort(std::vector<T>& items, Key key) {
  constexpr int kDigits = 8;
  const std::size_t n = items.size();
  if (n < 2) return;
  // The digits on which some key differs from the first one; only they
  // are counted and scattered.
  const std::uint64_t first = key(items[0]);
  std::uint64_t varying = 0;
  for (const T& item : items) varying |= key(item) ^ first;
  int shifts[kDigits] = {};
  int passes = 0;
  for (int d = 0; d < kDigits; ++d) {
    if ((varying >> (8 * d)) & 0xFF) shifts[passes++] = 8 * d;
  }
  if (passes == 0) return;

  // One histogram per counted digit: at small n, clearing all eight
  // would cost more than the items.
  std::vector<std::array<std::size_t, 256>> counts(passes);
  for (const T& item : items) {
    const std::uint64_t k = key(item);
    for (int p = 0; p < passes; ++p) ++counts[p][(k >> shifts[p]) & 0xFF];
  }
  std::vector<T> scratch(n);
  T* from = items.data();
  T* to = scratch.data();
  for (int p = 0; p < passes; ++p) {
    std::array<std::size_t, 256>& offset = counts[p];
    std::size_t sum = 0;
    for (std::size_t& slot : offset) {
      const std::size_t count = slot;
      slot = sum;
      sum += count;
    }
    for (std::size_t i = 0; i < n; ++i) {
      to[offset[(key(from[i]) >> shifts[p]) & 0xFF]++] = from[i];
    }
    std::swap(from, to);
  }
  // After an odd number of passes the result sits in the scratch.  It is
  // copied back rather than swapped in, so `items` keeps its own buffer:
  // callers clear and refill the same vector every BFS level, and a
  // buffer handed over at each call would churn the allocator.
  if (from != items.data()) std::copy(from, from + n, items.data());
}

}  // namespace detail

/// Sorts `items` ascending by `key(item)` (a std::uint64_t), stably.
template <typename T, typename Key>
void radix_sort(std::vector<T>& items, Key key) {
  if (items.size() < kRadixSortCutoff) {
    std::stable_sort(items.begin(), items.end(),
                     [&key](const T& a, const T& b) { return key(a) < key(b); });
    return;
  }
  detail::lsd_radix_sort(items, key);
}

}  // namespace mssg
