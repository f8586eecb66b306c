#include "common/metrics.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <utility>

namespace mssg {

void HistogramData::record(std::uint64_t value) {
  ++count;
  sum += value;
  min = std::min(min, value);
  max = std::max(max, value);
  ++buckets[std::bit_width(value)];
}

HistogramData& HistogramData::operator+=(const HistogramData& other) {
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  return *this;
}

std::uint64_t HistogramData::quantile_bound(double q) const {
  if (count == 0) return 0;
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(count));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen > target) {
      return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
    }
  }
  return max;
}

namespace {

// min/max as relaxed compare-exchange loops (std::atomic has no
// fetch_min before C++26).
void store_min(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t seen = slot.load(std::memory_order_relaxed);
  while (value < seen &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void store_max(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t seen = slot.load(std::memory_order_relaxed);
  while (value > seen &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::record(std::uint64_t value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  store_min(min_, value);
  store_max(max_, value);
  buckets_[std::bit_width(value)].fetch_add(1, std::memory_order_relaxed);
}

void Histogram::add(const HistogramData& data) {
  count_.fetch_add(data.count, std::memory_order_relaxed);
  sum_.fetch_add(data.sum, std::memory_order_relaxed);
  store_min(min_, data.min);
  store_max(max_, data.max);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i].fetch_add(data.buckets[i], std::memory_order_relaxed);
  }
}

HistogramData Histogram::load() const {
  HistogramData data;
  data.count = count_.load(std::memory_order_relaxed);
  data.sum = sum_.load(std::memory_order_relaxed);
  data.min = min_.load(std::memory_order_relaxed);
  data.max = max_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    data.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return data;
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

void MetricsSnapshot::add(std::string_view name, std::uint64_t delta) {
  counters[std::string(name)] += delta;
}

MetricsSnapshot& MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, hist] : other.histograms) histograms[name] += hist;
  return *this;
}

namespace {

// Counter/histogram names are code-controlled identifiers (no quotes or
// control characters), so JSON escaping reduces to passing them through.
void append_json_string(std::ostringstream& os, const std::string& s) {
  os << '"' << s << '"';
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) os << ',';
    first = false;
    append_json_string(os, name);
    os << ':' << value;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms) {
    if (!first) os << ',';
    first = false;
    append_json_string(os, name);
    os << ":{\"count\":" << hist.count << ",\"sum\":" << hist.sum
       << ",\"min\":" << (hist.count == 0 ? 0 : hist.min)
       << ",\"max\":" << hist.max << ",\"mean\":" << hist.mean()
       << ",\"p50\":" << hist.quantile_bound(0.5)
       << ",\"p99\":" << hist.quantile_bound(0.99) << '}';
  }
  os << "}}";
  return os.str();
}

std::string MetricsSnapshot::to_csv() const {
  std::ostringstream os;
  for (const auto& [name, value] : counters) {
    os << "counter," << name << ',' << value << '\n';
  }
  for (const auto& [name, hist] : histograms) {
    os << "histogram," << name << ',' << hist.count << ',' << hist.sum << ','
       << (hist.count == 0 ? 0 : hist.min) << ',' << hist.max << '\n';
  }
  return os.str();
}

std::string MetricsSnapshot::deterministic_string() const {
  std::ostringstream os;
  for (const auto& [name, value] : counters) {
    os << name << '=' << value << '\n';
  }
  return os.str();
}

TraceSpan::TraceSpan(TraceSpan&& other) noexcept
    : count_(std::exchange(other.count_, nullptr)),
      micros_(std::exchange(other.micros_, nullptr)),
      timer_(other.timer_) {}

TraceSpan& TraceSpan::operator=(TraceSpan&& other) noexcept {
  if (this != &other) {
    finish();
    count_ = std::exchange(other.count_, nullptr);
    micros_ = std::exchange(other.micros_, nullptr);
    timer_ = other.timer_;
  }
  return *this;
}

void TraceSpan::finish() {
  if (count_ == nullptr) return;
  ++*count_;
  micros_->record(timer_.nanos() / 1000);
  count_ = nullptr;
  micros_ = nullptr;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.try_emplace(std::string(name)).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard lock(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.try_emplace(std::string(name)).first->second;
}

TraceSpan MetricsRegistry::span(std::string_view name) {
  const std::string base = "span." + std::string(name);
  return TraceSpan(&counter(base), &histogram(base + ".us"));
}

void MetricsRegistry::merge(const MetricsSnapshot& snap) {
  for (const auto& [name, value] : snap.counters) counter(name) += value;
  for (const auto& [name, hist] : snap.histograms) histogram(name).add(hist);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard lock(mu_);
  for (const auto& [name, value] : counters_) {
    snap.counters.emplace_hint(snap.counters.end(), name, value.load());
  }
  for (const auto& [name, hist] : histograms_) {
    snap.histograms.emplace_hint(snap.histograms.end(), name, hist.load());
  }
  return snap;
}

}  // namespace mssg
