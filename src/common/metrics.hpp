// Unified metrics and tracing — the instrumentation layer behind every
// count the experiments report (fringe messages, blocks read, cache
// hits, ingestion windows, defrag passes).
//
// Four pieces:
//
//  - Counter / Histogram: the live slots.  A counter is one relaxed
//    atomic; a histogram is a set of them (power-of-two buckets), so
//    any thread may bump either without a lock.
//  - MetricsRegistry: named counters and histograms, safe to use from
//    any thread.  Registration (the first `counter(name)` call) and
//    snapshot() take an internal lock; the returned reference is a
//    stable handle, so a hot path resolves it once and then pays one
//    relaxed add per update and no name lookup.  Each cluster node owns
//    one (GraphDB::metrics()); storage counts into it through IoStats'
//    handles, queries through their options, while readers snapshot it
//    at any moment.
//  - TraceSpan: an RAII span (BFS level, ingestion window, defrag pass)
//    recording an occurrence count plus a duration histogram.  Span
//    counts are deterministic across same-seed runs; durations are not,
//    which is why they live in histograms, not counters.
//  - MetricsSnapshot: a merged, serializable plain-data view (JSON /
//    CSV) of one or more registries plus gauges read from live state.
//    `deterministic_string()` renders counters only, in canonical order
//    — the byte-comparable form the reproducibility tests assert on.
//    A snapshot taken while work runs sees each counter at some recent
//    value; counters are independent, so two of them need not come from
//    the same instant.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "common/timer.hpp"

namespace mssg {

/// Plain-data histogram over uint64 values with one bucket per power of
/// two (bucket i counts values whose bit width is i; value 0 lands in
/// bucket 0) — the snapshot form of a Histogram.
struct HistogramData {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max = 0;
  std::array<std::uint64_t, 65> buckets{};

  void record(std::uint64_t value);

  HistogramData& operator+=(const HistogramData& other);

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Upper bound (next power of two) of the bucket containing quantile
  /// `q` in [0, 1] — a coarse p50/p99 for reports.
  [[nodiscard]] std::uint64_t quantile_bound(double q) const;
};

/// Merged, serializable metrics view.  Plain data: copyable, mergeable.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramData> histograms;

  /// Value of a counter, 0 when absent.
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;

  void add(std::string_view name, std::uint64_t delta);

  /// Sums counters and merges histograms element-wise.
  MetricsSnapshot& merge(const MetricsSnapshot& other);

  /// Full snapshot as a JSON object: {"counters":{...},"histograms":{...}}.
  [[nodiscard]] std::string to_json() const;

  /// One "metric,name,value" CSV line per counter plus one summary line
  /// per histogram — the snapshot row the bench harness emits.
  [[nodiscard]] std::string to_csv() const;

  /// Counters only, "name=value\n" in canonical (sorted) order.  Two
  /// same-seed runs must produce byte-identical output; histograms are
  /// excluded because span durations are wall-clock.
  [[nodiscard]] std::string deterministic_string() const;
};

/// A monotonic counter slot: one relaxed atomic.  Relaxed ordering is
/// enough — every counter is independent, and readers only need each
/// value to be some recent total.
class Counter {
 public:
  Counter& operator+=(std::uint64_t n) {
    value_.fetch_add(n, std::memory_order_relaxed);
    return *this;
  }
  Counter& operator++() { return *this += 1; }

  [[nodiscard]] std::uint64_t load() const {
    return value_.load(std::memory_order_relaxed);
  }
  operator std::uint64_t() const { return load(); }  // NOLINT

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// The live twin of HistogramData: record() is lock-free and safe from
/// any thread.  load() reads each field on its own, so a load racing a
/// record may see the count without the sum of the same value.
class Histogram {
 public:
  void record(std::uint64_t value);
  /// Folds in a snapshot's contents (MetricsRegistry::merge).
  void add(const HistogramData& data);
  [[nodiscard]] HistogramData load() const;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{std::numeric_limits<std::uint64_t>::max()};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, 65> buckets_{};
};

class MetricsRegistry;

/// RAII span handle from MetricsRegistry::span().  On destruction adds
/// one to the span's occurrence counter and records the elapsed
/// microseconds into its duration histogram.  Default-constructed spans
/// are inert (instrumentation disabled).
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  TraceSpan(TraceSpan&& other) noexcept;
  TraceSpan& operator=(TraceSpan&& other) noexcept;
  ~TraceSpan() { finish(); }

  /// Ends the span early (idempotent).
  void finish();

 private:
  friend class MetricsRegistry;
  TraceSpan(Counter* count, Histogram* micros)
      : count_(count), micros_(micros) {}

  Counter* count_ = nullptr;
  Histogram* micros_ = nullptr;
  Timer timer_;
};

/// Named counters and histograms, safe to use from any thread (see the
/// file comment).  Entries are never removed, so handles stay valid for
/// the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Handle to the named monotonic counter, created zeroed on first use.
  /// Takes the registry lock: resolve once, outside per-block loops.
  Counter& counter(std::string_view name);

  /// Handle to the named histogram (same rules as counter()).
  Histogram& histogram(std::string_view name);

  /// Opens a trace span: counts into "span.<name>" and records
  /// microseconds into histogram "span.<name>.us".
  [[nodiscard]] TraceSpan span(std::string_view name);

  /// Adds a snapshot's counters and histograms into this registry.
  void merge(const MetricsSnapshot& snap);

  /// Every entry's current value; safe while writers run.
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  // std::map nodes give the stable addresses counter()/histogram()
  // hand out; transparent comparison avoids a string copy on lookup.
  mutable std::mutex mu_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace mssg
