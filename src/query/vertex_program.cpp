#include "query/vertex_program.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/timer.hpp"

namespace mssg {

// Scatter-phase message router.  Messages for peer ranks accumulate in
// per-owner buckets (pre-combined when the kernel has a combiner, so
// the wire carries one pair per (rank, target)); messages this rank
// owns short-circuit into the inbox-bound self bucket, no wire.
class VertexProgramEngine::Sink : public MessageSink {
 public:
  Sink(VertexProgramEngine& engine, VertexProgram& program)
      : engine_(engine),
        program_(program),
        combine_(program.has_combiner()),
        pair_buckets_(static_cast<std::size_t>(engine.comm_.size())),
        combined_buckets_(static_cast<std::size_t>(engine.comm_.size())) {}

  void emit(VertexId target, std::uint64_t value) override {
    const auto bucket = static_cast<std::size_t>(engine_.owner(target));
    if (combine_) {
      auto [it, inserted] = combined_buckets_[bucket].try_emplace(target, value);
      if (!inserted) {
        it->second = program_.combine(it->second, value);
        ++engine_.stats_.combines;
      }
    } else {
      pair_buckets_[bucket].emplace_back(target, value);
    }
  }

  /// Drains bucket `q` into `out` (appending), leaving it empty.
  void drain(Rank q, std::vector<VertexPair>& out) {
    const auto bucket = static_cast<std::size_t>(q);
    if (combine_) {
      for (const auto& [target, value] : combined_buckets_[bucket]) {
        out.emplace_back(target, value);
      }
      combined_buckets_[bucket].clear();
    } else {
      out.insert(out.end(), pair_buckets_[bucket].begin(),
                 pair_buckets_[bucket].end());
      pair_buckets_[bucket].clear();
    }
  }

 private:
  VertexProgramEngine& engine_;
  VertexProgram& program_;
  const bool combine_;
  std::vector<std::vector<VertexPair>> pair_buckets_;
  std::vector<std::unordered_map<VertexId, std::uint64_t>> combined_buckets_;
};

VertexProgramEngine::VertexProgramEngine(Communicator& comm, GraphDB& db,
                                         const VertexProgramOptions& options)
    : comm_(comm),
      db_(db),
      options_(options),
      // Resolved once: a by-name lookup takes the registry lock.
      encode_bytes_(options.metrics != nullptr
                        ? &options.metrics->histogram("codec.encode_bytes")
                        : nullptr),
      decode_bytes_(options.metrics != nullptr
                        ? &options.metrics->histogram("codec.decode_bytes")
                        : nullptr) {
  info_.ranks = comm_.size();
  info_.rank = comm_.rank();
}

std::uint32_t VertexProgramEngine::ensure_slot(VertexProgram& program,
                                               VertexId v) {
  const auto it = index_.find(v);
  if (it != index_.end()) return it->second;
  // A message reached a vertex this rank owns but never stored
  // (degree-0 locally) — mirror the legacy CC's lazy label entry.
  const auto slot = static_cast<std::uint32_t>(ids_.size());
  bool ignored_active = false;
  const std::uint64_t initial = program.init(v, ignored_active);
  ids_.push_back(v);
  state_.push_back(initial);
  index_.emplace(v, slot);
  sorted_dirty_ = true;
  if (next_active_.size() < ids_.size()) {
    next_active_.resize(std::max<std::size_t>(ids_.size() * 2, 64));
  }
  return slot;
}

const std::vector<std::uint32_t>& VertexProgramEngine::sorted_slots() const {
  if (sorted_dirty_ || sorted_slots_.size() != ids_.size()) {
    sorted_slots_.resize(ids_.size());
    for (std::uint32_t i = 0; i < ids_.size(); ++i) sorted_slots_[i] = i;
    std::sort(sorted_slots_.begin(), sorted_slots_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return ids_[a] < ids_[b];
              });
    sorted_dirty_ = false;
  }
  return sorted_slots_;
}

void VertexProgramEngine::load_local_vertices(VertexProgram& program) {
  // Collect then SORT: for_each_vertex enumerates in backend hash order,
  // which must never leak into execution order (the PR 2 determinism
  // rule).
  std::vector<VertexId> local;
  db_.for_each_vertex([&](VertexId v) {
    local.push_back(v);
    return true;
  });
  std::sort(local.begin(), local.end());
  initial_vertices_ = local.size();
  info_.global_vertices = comm_.allreduce_sum(local.size());
  program.begin(info_);

  ids_.reserve(local.size());
  state_.reserve(local.size());
  for (const VertexId v : local) {
    bool active = false;
    const std::uint64_t initial = program.init(v, active);
    const auto slot = static_cast<std::uint32_t>(ids_.size());
    ids_.push_back(v);
    state_.push_back(initial);
    index_.emplace(v, slot);
    if (active) frontier_.push_back(v);
  }
  next_active_.resize(std::max<std::size_t>(ids_.size(), 64));
}

PayloadBuffer VertexProgramEngine::pack_pairs(std::vector<VertexPair>& pairs) {
  const std::size_t raw_bytes = raw_pair_wire_bytes(pairs.size());
  std::vector<std::byte> encoded = encode_pair_set(pairs, options_.wire);
  comm_.record_payload_encoding(raw_bytes, encoded.size());
  if (encode_bytes_ != nullptr) encode_bytes_->record(encoded.size());
  return PayloadBuffer(std::move(encoded));
}

void VertexProgramEngine::scatter_frontier(VertexProgram& program,
                                           Sink& sink) {
  if (options_.prefetch && !frontier_.empty()) db_.prefetch(frontier_);
  db_.get_adjacency_batch(
      frontier_, [&](std::size_t i, std::span<const VertexId> neighbors) {
        const VertexId v = frontier_[i];
        ++stats_.vertices_scattered;
        stats_.edges_scanned += neighbors.size();
        program.scatter(v, state_[index_.at(v)], neighbors, sink);
        return true;
      });
}

void VertexProgramEngine::exchange(Sink& sink) {
  const int p = comm_.size();
  std::vector<VertexPair> wire_scratch;
  for (Rank q = 0; q < p; ++q) {
    if (q == comm_.rank()) {
      sink.drain(q, inbox_);  // self messages skip the wire
      continue;
    }
    wire_scratch.clear();
    sink.drain(q, wire_scratch);
    comm_.send(q, kVertexProgramTag, pack_pairs(wire_scratch));
    ++stats_.fringe_messages;
  }
  // Merge in rank order (not arrival order) so every counter — and
  // every order-sensitive fold — is a pure function of the inputs.
  std::vector<VertexPair> received;
  for (Rank q = 0; q < p; ++q) {
    if (q == comm_.rank()) continue;
    const Message msg = comm_.recv(kVertexProgramTag, q);
    decode_pair_set(msg.payload, received);
    if (decode_bytes_ != nullptr) decode_bytes_->record(msg.payload.size());
    inbox_.insert(inbox_.end(), received.begin(), received.end());
  }
}

void VertexProgramEngine::apply_inbox(VertexProgram& program) {
  // Sort delivered pairs so each target's value group is ascending —
  // deterministic fold order regardless of sender count or arrival.
  std::sort(inbox_.begin(), inbox_.end());
  stats_.messages_delivered += inbox_.size();
  next_frontier_.clear();
  if (next_active_.size() < ids_.size()) next_active_.resize(ids_.size() * 2);
  next_active_.reset_all();

  const bool needs_adjacency = program.apply_needs_adjacency();
  const auto apply_one = [&](VertexId v,
                             std::span<const std::uint64_t> values) {
    const std::uint32_t slot = ensure_slot(program, v);
    std::span<const VertexId> neighbors{};
    if (needs_adjacency) {
      adjacency_scratch_.clear();
      db_.get_adjacency(v, adjacency_scratch_);
      stats_.edges_scanned += adjacency_scratch_.size();
      neighbors = adjacency_scratch_;
    }
    const bool activate = program.apply(v, state_[slot], values, neighbors);
    if (activate && !next_active_.test_and_set(slot)) {
      next_frontier_.push_back(v);
    }
  };

  // Walk the sorted inbox in target runs.  Dense kernels additionally
  // apply every message-less local vertex, merged in id order.
  const std::vector<std::uint32_t>* dense_slots =
      program.dense() ? &sorted_slots() : nullptr;
  std::size_t dense_idx = 0;
  const auto flush_dense_below = [&](VertexId limit) {
    if (dense_slots == nullptr) return;
    while (dense_idx < dense_slots->size()) {
      const std::uint32_t slot = (*dense_slots)[dense_idx];
      if (ids_[slot] >= limit) break;
      apply_one(ids_[slot], {});
      ++dense_idx;
    }
  };

  std::size_t i = 0;
  while (i < inbox_.size()) {
    const VertexId target = inbox_[i].first;
    value_scratch_.clear();
    while (i < inbox_.size() && inbox_[i].first == target) {
      value_scratch_.push_back(inbox_[i].second);
      ++i;
    }
    flush_dense_below(target);
    if (dense_slots != nullptr && dense_idx < dense_slots->size() &&
        ids_[(*dense_slots)[dense_idx]] == target) {
      ++dense_idx;
    }
    apply_one(target, value_scratch_);
  }
  flush_dense_below(kInvalidVertex);
  inbox_.clear();
}

void VertexProgramEngine::publish_stats() const {
  MetricsRegistry* reg = options_.metrics;
  if (reg == nullptr) return;
  reg->counter("vp.runs") += 1;
  reg->counter("vp.supersteps") += stats_.supersteps;
  reg->counter("vp.vertices_scattered") += stats_.vertices_scattered;
  reg->counter("vp.edges_scanned") += stats_.edges_scanned;
  reg->counter("vp.messages_delivered") += stats_.messages_delivered;
  reg->counter("vp.fringe_messages") += stats_.fringe_messages;
  reg->counter("vp.combines") += stats_.combines;
  if (stats_.truncated) reg->counter("vp.truncated") += 1;
}

VertexProgramStats VertexProgramEngine::run(VertexProgram& program) {
  Timer timer;
  MSSG_CHECK(ids_.empty());  // one run per engine
  load_local_vertices(program);
  std::sort(frontier_.begin(), frontier_.end());

  Sink sink(*this, program);
  for (std::uint64_t step = 1; step <= options_.max_supersteps; ++step) {
    TraceSpan span;
    if (options_.metrics != nullptr) {
      span = options_.metrics->span("vp.superstep");
    }
    const std::uint64_t edges_before = stats_.edges_scanned;
    if (program.dense()) {
      // Every local vertex scatters every superstep.
      frontier_.clear();
      for (const std::uint32_t slot : sorted_slots()) {
        frontier_.push_back(ids_[slot]);
      }
    }

    scatter_frontier(program, sink);
    exchange(sink);
    apply_inbox(program);
    ++stats_.supersteps;

    if (options_.budget != nullptr) {
      options_.budget->charge(stats_.edges_scanned - edges_before);
    }

    // Collective epilogue, identical on every rank: the kernel's
    // aggregate, dormant-vertex wakeups, then the termination checks.
    const std::uint64_t agg = comm_.allreduce_min(program.aggregate());
    program.set_aggregate(agg);
    activation_scratch_.clear();
    program.collect_activations(activation_scratch_);
    for (const VertexId v : activation_scratch_) {
      const std::uint32_t slot = ensure_slot(program, v);
      if (next_active_.size() < ids_.size()) {
        next_active_.resize(ids_.size() * 2);
      }
      if (!next_active_.test_and_set(slot)) next_frontier_.push_back(v);
    }
    const std::uint64_t global_active = comm_.allreduce_sum(
        program.dense() ? ids_.size() : next_frontier_.size());

    // Natural completion is checked BEFORE the budget, so a budget of
    // exactly the work remaining completes without reporting truncation.
    if (!comm_.allreduce_or(program.keep_running(step))) break;
    if (!program.dense() && global_active == 0) break;
    if (comm_.allreduce_or(options_.budget != nullptr &&
                           options_.budget->exhausted())) {
      stats_.truncated = true;
      if (options_.budget != nullptr) options_.budget->note_truncation();
      break;
    }

    frontier_.swap(next_frontier_);
    std::sort(frontier_.begin(), frontier_.end());
  }

  comm_.barrier();
  stats_.seconds = timer.seconds();
  publish_stats();
  return stats_;
}

}  // namespace mssg
