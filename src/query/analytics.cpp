#include "query/analytics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "common/error.hpp"

namespace mssg {

namespace {

/// Fills `out` with the sorted distinct neighbors of `v`, self excluded —
/// the simple-graph projection the undirected analyses run on.
void distinct_neighbors(VertexId v, std::span<const VertexId> neighbors,
                        std::vector<VertexId>& out) {
  out.assign(neighbors.begin(), neighbors.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  const auto self = std::lower_bound(out.begin(), out.end(), v);
  if (self != out.end() && *self == v) out.erase(self);
}

// ---------------------------------------------------------------------------
// PageRank

class PageRankProgram final : public VertexProgram {
 public:
  PageRankProgram(std::uint64_t iterations, double damping)
      : iterations_(iterations), damping_(damping) {}

  void begin(const VertexProgramInfo& info) override {
    inv_n_ = 1.0 / static_cast<double>(std::max<std::uint64_t>(
                       info.global_vertices, 1));
  }

  std::uint64_t init(VertexId /*v*/, bool& active) override {
    active = true;
    return std::bit_cast<std::uint64_t>(inv_n_);
  }

  [[nodiscard]] bool dense() const override { return true; }
  // Deliberately NO combiner: pre-summing per sender rank would make the
  // FP fold depend on the partition.  Uncombined, the delivered multiset
  // is partition-independent and the engine folds it sorted, so ranks
  // are bit-identical on 1, 2, and 4 nodes.

  void scatter(VertexId /*v*/, std::uint64_t& state,
               std::span<const VertexId> neighbors,
               MessageSink& sink) override {
    if (neighbors.empty()) return;
    const double share = std::bit_cast<double>(state) /
                         static_cast<double>(neighbors.size());
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(share);
    for (const VertexId u : neighbors) sink.emit(u, bits);
  }

  bool apply(VertexId /*v*/, std::uint64_t& state,
             std::span<const std::uint64_t> messages,
             std::span<const VertexId> /*neighbors*/) override {
    double sum = 0.0;
    for (const std::uint64_t bits : messages) {
      sum += std::bit_cast<double>(bits);
    }
    state = std::bit_cast<std::uint64_t>((1.0 - damping_) * inv_n_ +
                                         damping_ * sum);
    return false;  // dense: activity is implicit
  }

  [[nodiscard]] bool keep_running(std::uint64_t superstep) const override {
    return superstep < iterations_;
  }

 private:
  const std::uint64_t iterations_;
  const double damping_;
  double inv_n_ = 1.0;
};

// ---------------------------------------------------------------------------
// Connected components (min-label propagation)

class CcProgram final : public VertexProgram {
 public:
  std::uint64_t init(VertexId v, bool& active) override {
    active = true;
    return v;
  }

  [[nodiscard]] bool has_combiner() const override { return true; }
  [[nodiscard]] std::uint64_t combine(std::uint64_t a,
                                      std::uint64_t b) const override {
    return a < b ? a : b;
  }

  void scatter(VertexId /*v*/, std::uint64_t& state,
               std::span<const VertexId> neighbors,
               MessageSink& sink) override {
    for (const VertexId u : neighbors) sink.emit(u, state);
  }

  bool apply(VertexId /*v*/, std::uint64_t& state,
             std::span<const std::uint64_t> messages,
             std::span<const VertexId> /*neighbors*/) override {
    // Messages arrive sorted: the minimum candidate is the first.  The
    // min fold is order-free anyway — label ties cannot depend on rank
    // arrival order by construction.
    if (messages.empty() || messages.front() >= state) return false;
    state = messages.front();
    return true;
  }
};

// ---------------------------------------------------------------------------
// k-core peeling

class KCoreProgram final : public VertexProgram {
 public:
  explicit KCoreProgram(std::uint32_t k) : k_(k) {}

  std::uint64_t init(VertexId /*v*/, bool& active) override {
    active = true;
    return kUnknown;
  }

  [[nodiscard]] bool has_combiner() const override { return true; }
  [[nodiscard]] std::uint64_t combine(std::uint64_t a,
                                      std::uint64_t b) const override {
    return a + b;  // decrement counts
  }

  void scatter(VertexId v, std::uint64_t& state,
               std::span<const VertexId> neighbors,
               MessageSink& sink) override {
    if (state == kUnknown) {
      // First superstep: measure the projected degree; vertices already
      // below k leave immediately and notify while the list is in hand.
      distinct_neighbors(v, neighbors, scratch_);
      const auto degree = static_cast<std::uint64_t>(scratch_.size());
      if (degree < k_) {
        state = kRemoved | kNotified;
        for (const VertexId u : scratch_) sink.emit(u, 1);
      } else {
        state = degree;
      }
      return;
    }
    if ((state & kRemoved) != 0 && (state & kNotified) == 0) {
      state |= kNotified;
      distinct_neighbors(v, neighbors, scratch_);
      for (const VertexId u : scratch_) sink.emit(u, 1);
    }
  }

  bool apply(VertexId /*v*/, std::uint64_t& state,
             std::span<const std::uint64_t> messages,
             std::span<const VertexId> /*neighbors*/) override {
    if ((state & kRemoved) != 0) return false;
    if (state == kUnknown) {
      // Lazily created target: never stored locally, so its projected
      // degree is 0 — outside any k-core for k >= 1, nothing to notify.
      state = kRemoved | kNotified;
      return false;
    }
    std::uint64_t decrements = 0;
    for (const std::uint64_t m : messages) decrements += m;
    std::uint64_t degree = state & kDegreeMask;
    degree = decrements >= degree ? 0 : degree - decrements;
    if (degree < k_) {
      state = kRemoved;  // notify neighbors next superstep
      return true;
    }
    state = degree;
    return false;
  }

  static constexpr std::uint64_t kRemoved = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kNotified = std::uint64_t{1} << 62;
  static constexpr std::uint64_t kUnknown = std::uint64_t{1} << 61;
  static constexpr std::uint64_t kDegreeMask = kUnknown - 1;

 private:
  const std::uint64_t k_;
  std::vector<VertexId> scratch_;
};

// ---------------------------------------------------------------------------
// Triangle counting

class TriangleProgram final : public VertexProgram {
 public:
  std::uint64_t init(VertexId /*v*/, bool& active) override {
    active = true;
    return 0;
  }

  [[nodiscard]] bool apply_needs_adjacency() const override { return true; }

  void scatter(VertexId v, std::uint64_t& /*state*/,
               std::span<const VertexId> neighbors,
               MessageSink& sink) override {
    // Wedge probes: for each pair v < a < b of distinct neighbors, ask a
    // whether b is adjacent — each triangle {x < y < z} is probed exactly
    // once, from its minimum vertex.
    distinct_neighbors(v, neighbors, scratch_);
    const auto begin = std::upper_bound(scratch_.begin(), scratch_.end(), v);
    for (auto a = begin; a != scratch_.end(); ++a) {
      for (auto b = a + 1; b != scratch_.end(); ++b) {
        sink.emit(*a, *b);
        ++wedge_checks_;
      }
    }
  }

  bool apply(VertexId v, std::uint64_t& /*state*/,
             std::span<const std::uint64_t> messages,
             std::span<const VertexId> neighbors) override {
    distinct_neighbors(v, neighbors, scratch_);
    for (const std::uint64_t w : messages) {
      if (std::binary_search(scratch_.begin(), scratch_.end(), w)) {
        ++triangles_;
      }
    }
    return false;
  }

  [[nodiscard]] std::uint64_t triangles() const { return triangles_; }
  [[nodiscard]] std::uint64_t wedge_checks() const { return wedge_checks_; }

 private:
  std::uint64_t triangles_ = 0;
  std::uint64_t wedge_checks_ = 0;
  std::vector<VertexId> scratch_;
};

// ---------------------------------------------------------------------------
// Delta-stepping SSSP

class SsspProgram final : public VertexProgram {
 public:
  explicit SsspProgram(const SsspOptions& options)
      : src_(options.source),
        delta_(std::max<std::uint64_t>(options.delta, 1)),
        max_weight_(std::max<std::uint32_t>(options.max_weight, 1)) {}

  std::uint64_t init(VertexId v, bool& active) override {
    if (v == src_) {
      active = true;
      return 0;
    }
    active = false;
    return kInfiniteDistance;
  }

  [[nodiscard]] bool has_combiner() const override { return true; }
  [[nodiscard]] std::uint64_t combine(std::uint64_t a,
                                      std::uint64_t b) const override {
    return a < b ? a : b;
  }

  void scatter(VertexId v, std::uint64_t& state,
               std::span<const VertexId> neighbors,
               MessageSink& sink) override {
    pending_.erase(v);
    if (state == kInfiniteDistance) return;
    for (const VertexId u : neighbors) {
      if (u == v) continue;
      sink.emit(u, state + sssp_edge_weight(v, u, max_weight_));
    }
  }

  bool apply(VertexId v, std::uint64_t& state,
             std::span<const std::uint64_t> messages,
             std::span<const VertexId> /*neighbors*/) override {
    if (messages.empty()) return false;
    const std::uint64_t candidate = messages.front();  // sorted: min first
    if (candidate >= state) return false;
    state = candidate;
    const std::uint64_t bucket = candidate / delta_;
    if (bucket <= current_bucket_) {
      // Improved inside the open bucket: re-relax next superstep.
      pending_.erase(v);
      active_min_bucket_ = std::min(active_min_bucket_, bucket);
      return true;
    }
    pending_[v] = bucket;  // dormant until its bucket opens
    return false;
  }

  [[nodiscard]] std::uint64_t aggregate() const override {
    // The next bucket that still has work: the open bucket while any
    // vertex is active in it, else the shallowest dormant bucket.
    std::uint64_t next = active_min_bucket_;
    for (const auto& [v, bucket] : pending_) next = std::min(next, bucket);
    return next;
  }

  void set_aggregate(std::uint64_t global_min) override {
    current_bucket_ = global_min;
    active_min_bucket_ = ~std::uint64_t{0};
  }

  void collect_activations(std::vector<VertexId>& out) override {
    wake_scratch_.clear();
    for (const auto& [v, bucket] : pending_) {
      if (bucket <= current_bucket_) wake_scratch_.push_back(v);
    }
    for (const VertexId v : wake_scratch_) {
      pending_.erase(v);
      out.push_back(v);
    }
  }

 private:
  const VertexId src_;
  const std::uint64_t delta_;
  const std::uint32_t max_weight_;
  std::uint64_t current_bucket_ = 0;
  std::uint64_t active_min_bucket_ = ~std::uint64_t{0};
  std::unordered_map<VertexId, std::uint64_t> pending_;
  std::vector<VertexId> wake_scratch_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Entry points

std::uint64_t sssp_edge_weight(VertexId a, VertexId b,
                               std::uint32_t max_weight) {
  if (max_weight <= 1) return 1;
  if (a > b) std::swap(a, b);
  // splitmix64-style finalizer over the order-free endpoint pair.
  std::uint64_t x =
      a * 0x9E3779B97F4A7C15ull ^ (b + 0xD1B54A32D192ED03ull);
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return 1 + x % max_weight;
}

PageRankStats parallel_pagerank(
    Communicator& comm, GraphDB& db, const PageRankOptions& options,
    std::vector<std::pair<VertexId, double>>* local_ranks) {
  MSSG_CHECK(options.iterations >= 1);
  MSSG_CHECK(options.damping > 0.0 && options.damping < 1.0);
  PageRankProgram program(options.iterations, options.damping);
  VertexProgramEngine engine(comm, db, options.engine);
  const VertexProgramStats run = engine.run(program);

  PageRankStats stats;
  stats.vertices = engine.info().global_vertices;
  stats.supersteps = run.supersteps;
  stats.edges_scanned = run.edges_scanned;
  stats.truncated = run.truncated;
  stats.seconds = run.seconds;

  double local_sum = 0.0;
  std::uint64_t best_bits = 0;
  VertexId best_vertex = kInvalidVertex;
  if (local_ranks != nullptr) local_ranks->clear();
  engine.for_each_state([&](VertexId v, std::uint64_t state) {
    const double rank = std::bit_cast<double>(state);
    local_sum += rank;
    if (local_ranks != nullptr) local_ranks->emplace_back(v, rank);
    if (state > best_bits || best_vertex == kInvalidVertex) {
      best_bits = state;
      best_vertex = v;
    }
  });
  // Positive IEEE-754 doubles order-preserve as uint64 bits, so the max
  // rank reduces exactly; ties resolve to the smallest vertex id.
  const std::uint64_t top_bits = comm.allreduce_max(best_bits);
  stats.top_rank = std::bit_cast<double>(top_bits);
  stats.top_vertex = comm.allreduce_min(
      best_bits == top_bits && best_vertex != kInvalidVertex ? best_vertex
                                                             : kInvalidVertex);
  // Fixed-point global sum (nanorank granularity) — reporting only.
  stats.rank_sum =
      static_cast<double>(comm.allreduce_sum(
          static_cast<std::uint64_t>(std::llround(local_sum * 1e9)))) /
      1e9;
  return stats;
}

CcStats parallel_label_cc(
    Communicator& comm, GraphDB& db, const VertexProgramOptions& options,
    std::vector<std::pair<VertexId, VertexId>>* local_labels) {
  CcProgram program;
  VertexProgramEngine engine(comm, db, options);
  const VertexProgramStats run = engine.run(program);

  CcStats stats;
  stats.vertices = engine.info().global_vertices;
  stats.iterations = run.supersteps;
  stats.edges_scanned = run.edges_scanned;
  stats.seconds = run.seconds;
  // A component is counted at the owner of its minimum-id vertex.
  std::uint64_t local_roots = 0;
  if (local_labels != nullptr) local_labels->clear();
  engine.for_each_state([&](VertexId v, std::uint64_t label) {
    if (label == v) ++local_roots;
    if (local_labels != nullptr) local_labels->emplace_back(v, label);
  });
  stats.components = comm.allreduce_sum(local_roots);
  return stats;
}

KCoreStats parallel_kcore(Communicator& comm, GraphDB& db,
                          const KCoreOptions& options) {
  KCoreProgram program(options.k);
  VertexProgramEngine engine(comm, db, options.engine);
  const VertexProgramStats run = engine.run(program);

  KCoreStats stats;
  stats.rounds = run.supersteps;
  stats.edges_scanned = run.edges_scanned;
  stats.truncated = run.truncated;
  stats.seconds = run.seconds;
  std::uint64_t local_core = 0;
  engine.for_each_state([&](VertexId /*v*/, std::uint64_t state) {
    if ((state & KCoreProgram::kRemoved) == 0) ++local_core;
  });
  stats.core_vertices = comm.allreduce_sum(local_core);
  return stats;
}

TriangleStats parallel_triangle_count(Communicator& comm, GraphDB& db,
                                      const VertexProgramOptions& options) {
  TriangleProgram program;
  VertexProgramEngine engine(comm, db, options);
  const VertexProgramStats run = engine.run(program);

  TriangleStats stats;
  stats.edges_scanned = run.edges_scanned;
  stats.seconds = run.seconds;
  stats.triangles = comm.allreduce_sum(program.triangles());
  stats.wedge_checks = comm.allreduce_sum(program.wedge_checks());
  return stats;
}

SsspStats parallel_sssp(
    Communicator& comm, GraphDB& db, const SsspOptions& options,
    std::vector<std::pair<VertexId, std::uint64_t>>* local_distances) {
  SsspStats stats;
  if (options.target != kInvalidVertex && options.source == options.target) {
    stats.distance = 0;
    stats.reached = 1;
    return stats;
  }
  SsspProgram program(options);
  VertexProgramEngine engine(comm, db, options.engine);
  const VertexProgramStats run = engine.run(program);

  stats.supersteps = run.supersteps;
  stats.edges_scanned = run.edges_scanned;
  stats.truncated = run.truncated;
  stats.seconds = run.seconds;
  std::uint64_t local_reached = 0;
  std::uint64_t local_target = kInfiniteDistance;
  if (local_distances != nullptr) local_distances->clear();
  engine.for_each_state([&](VertexId v, std::uint64_t distance) {
    if (distance == kInfiniteDistance) return;
    ++local_reached;
    if (local_distances != nullptr) local_distances->emplace_back(v, distance);
    if (v == options.target) local_target = distance;
  });
  stats.reached = comm.allreduce_sum(local_reached);
  stats.distance = comm.allreduce_min(local_target);
  return stats;
}

}  // namespace mssg
