#include "query/bidirectional_bfs.hpp"

#include <unordered_map>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "common/vertex_codec.hpp"

namespace mssg {

namespace {

constexpr std::uint64_t kNoMeeting = ~std::uint64_t{0};

}  // namespace

BfsStats bidirectional_oocbfs(Communicator& comm, GraphDB& db, VertexId src,
                              VertexId dst, const BfsOptions& options) {
  MSSG_CHECK(options.map_known);  // directed routing only (see header)
  Timer timer;
  const int p = comm.size();
  const auto owner = [p](VertexId v) { return static_cast<Rank>(v % p); };

  BfsStats stats;
  if (src == dst) {
    stats.distance = 0;
    comm.barrier();
    stats.seconds = timer.seconds();
    return stats;
  }

  // side 0 grows from src, side 1 from dst.  The visited structures are
  // algorithm-local (the two searches cannot share the GraphDB's single
  // metadata word).
  std::unordered_map<VertexId, Metadata> level[2];
  std::vector<VertexId> frontier[2];
  Metadata depth[2] = {0, 0};
  level[0].emplace(src, 0);
  level[1].emplace(dst, 0);
  if (owner(src) == comm.rank()) frontier[0].push_back(src);
  if (owner(dst) == comm.rank()) frontier[1].push_back(dst);

  std::uint64_t best_meeting = kNoMeeting;
  std::vector<std::vector<VertexId>> buckets(p);
  std::vector<VertexId> next_frontier;
  std::vector<VertexId> decode_scratch;

  // Same wire discipline as bfs.cpp: encode (sorting the bucket — the
  // receiver merges a set) and account the compression outcome.
  const auto pack_fringe = [&](std::vector<VertexId>& bucket) {
    const std::size_t raw_bytes = raw_vertex_wire_bytes(bucket.size());
    std::vector<std::byte> encoded = encode_vertex_set(bucket, options.wire);
    comm.record_payload_encoding(raw_bytes, encoded.size());
    return PayloadBuffer(std::move(encoded));
  };

  const auto check_meeting = [&](VertexId u, int side) {
    const auto other = level[1 - side].find(u);
    if (other == level[1 - side].end()) return;
    const std::uint64_t total =
        static_cast<std::uint64_t>(level[side].at(u)) +
        static_cast<std::uint64_t>(other->second);
    best_meeting = std::min(best_meeting, total);
  };

  const Metadata round_limit = options.max_levels * 2;
  for (Metadata round = 0; round < round_limit; ++round) {
    // Advance the globally smaller frontier (all ranks agree: the sizes
    // come from collectives).
    const std::uint64_t forward_size = comm.allreduce_sum(frontier[0].size());
    const std::uint64_t backward_size = comm.allreduce_sum(frontier[1].size());
    if (forward_size == 0 || backward_size == 0) break;  // disconnected
    const int side = forward_size <= backward_size ? 0 : 1;
    const Metadata next_depth = ++depth[side];

    TraceSpan round_span;
    if (options.metrics != nullptr) {
      round_span = options.metrics->span("bidir.round");
    }
    next_frontier.clear();
    for (auto& bucket : buckets) bucket.clear();

    if (options.prefetch) db.prefetch(frontier[side]);
    stats.vertices_expanded += frontier[side].size();
    db.get_adjacency_batch(
        frontier[side], [&](std::size_t, std::span<const VertexId> neighbors) {
          stats.edges_scanned += neighbors.size();
          for (const VertexId u : neighbors) {
            if (level[side].contains(u)) continue;
            level[side].emplace(u, next_depth);
            check_meeting(u, side);
            if (owner(u) == comm.rank()) {
              next_frontier.push_back(u);
            } else {
              buckets[owner(u)].push_back(u);
            }
          }
          return true;
        });

    for (Rank q = 0; q < p; ++q) {
      if (q == comm.rank()) continue;
      comm.send(q, kBidirFringeTag, pack_fringe(buckets[q]));
      ++stats.fringe_messages;
    }
    // Rank-ordered merge for deterministic counters (see bfs.cpp).
    for (Rank q = 0; q < p; ++q) {
      if (q == comm.rank()) continue;
      const Message msg = comm.recv(kBidirFringeTag, q);
      decode_vertex_set(msg.payload, decode_scratch);
      for (const VertexId u : decode_scratch) {
        if (level[side].contains(u)) continue;
        level[side].emplace(u, next_depth);
        check_meeting(u, side);
        next_frontier.push_back(u);
      }
    }

    ++stats.levels;
    frontier[side].swap(next_frontier);

    // With full levels expanded, any meeting seen so far is optimal: a
    // later meeting costs at least depth[0] + depth[1] >= best.
    const std::uint64_t global_best = comm.allreduce_min(best_meeting);
    if (global_best != kNoMeeting) {
      stats.distance = static_cast<Metadata>(global_best);
      break;
    }
  }

  comm.barrier();
  stats.seconds = timer.seconds();
  if (options.metrics != nullptr) {
    MetricsRegistry& reg = *options.metrics;
    reg.counter("bidir.queries") += 1;
    reg.counter("bidir.levels") += stats.levels;
    reg.counter("bidir.edges_scanned") += stats.edges_scanned;
    reg.counter("bidir.vertices_expanded") += stats.vertices_expanded;
    reg.counter("bidir.fringe_messages") += stats.fringe_messages;
  }
  return stats;
}

}  // namespace mssg
