#include "query/ms_bfs.hpp"

#include <bit>
#include <algorithm>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/radix_sort.hpp"
#include "common/timer.hpp"

namespace mssg {

namespace {

class MsBfsRun {
 public:
  MsBfsRun(Communicator& comm, GraphDB& db, std::span<const VertexId> sources,
           VertexId dst, const MsBfsOptions& options)
      : comm_(comm),
        db_(db),
        sources_(sources),
        dst_(dst),
        options_(options),
        // Resolved once: a by-name lookup takes the registry lock.
        encode_bytes_(options.metrics != nullptr
                          ? &options.metrics->histogram("codec.encode_bytes")
                          : nullptr),
        decode_bytes_(options.metrics != nullptr
                          ? &options.metrics->histogram("codec.decode_bytes")
                          : nullptr) {}

  MsBfsStats execute();

 private:
  [[nodiscard]] Rank owner(VertexId v) const {
    return static_cast<Rank>(v % comm_.size());
  }

  /// Handles one (neighbor, source-mask) candidate discovered while
  /// expanding the local frontier.
  void discover(VertexId u, std::uint64_t mask);

  /// Merges one received fringe pair into the local next frontier.
  void merge_candidate(VertexId u, std::uint64_t mask);

  /// Grows the dense arrays to cover vertex `u` and applies the source
  /// marks they now reach.
  void cover(VertexId u);

  /// Adds `fresh` to u's pending bits, listing u for rank `q` (its owner,
  /// or this rank in broadcast mode) on its first pending bit.
  void queue(Rank q, VertexId u, std::uint64_t fresh) {
    if (pending_[u] == 0) touched_[q].push_back(u);
    pending_[u] |= fresh;
  }

  /// Counts `fresh` as discoveries owned by this rank.
  void count_discovered(std::uint64_t fresh) {
    for (std::uint64_t bits = fresh; bits != 0; bits &= bits - 1) {
      ++discovered_local_[std::countr_zero(bits)];
    }
  }

  /// Moves rank q's listed vertices and their pending bits into
  /// pair_scratch_, leaving both empty.
  void take_pairs(Rank q);

  /// Expands every frontier entry once, fanning each adjacency list out
  /// to all sources in the entry's (active-filtered) mask.
  void expand_frontier();

  /// One bulk (vertex, mask) exchange per level: mask-merged buckets to
  /// owner ranks, or one broadcast in unknown-map mode.
  void exchange_fringe();

  [[nodiscard]] PayloadBuffer pack_pairs(std::vector<VertexPair>& pairs);

  void publish_stats() const;

  Communicator& comm_;
  GraphDB& db_;
  std::span<const VertexId> sources_;
  VertexId dst_;
  const MsBfsOptions& options_;

  Histogram* encode_bytes_;
  Histogram* decode_bytes_;

  MsBfsStats stats_;
  std::uint64_t active_ = 0;      // sources still searching
  std::uint64_t found_local_ = 0; // sources that reached dst this level
  // Query-private visited state, dense by vertex id: seen_[v] holds the
  // sources that have reached v, pending_[v] the bits found this level
  // and not yet merged (owned here) or shipped (owned elsewhere).
  // Deliberately NOT the GraphDB metadata store, so concurrent runs
  // cannot corrupt each other.  Both arrays grow to the highest id read
  // from storage, never to a query parameter: source marks past their
  // end wait in source_marks_ until cover() reaches them.
  std::vector<std::uint64_t> seen_;
  std::vector<std::uint64_t> pending_;
  std::vector<VertexPair> source_marks_;
  // Vertices with pending bits, per destination rank.  Each vertex has
  // one owner, so one pending_ array serves every list; this rank's own
  // list is the next frontier.
  std::vector<std::vector<VertexId>> touched_;
  std::vector<VertexPair> frontier_;  // (vertex, source mask), by id
  std::vector<std::uint64_t> discovered_local_;  // per source bit
  std::vector<VertexPair> pair_scratch_;
  // This level's reads: the frontier vertices with an active source, and
  // their active-filtered masks.
  std::vector<VertexId> fetch_scratch_;
  std::vector<std::uint64_t> fetch_masks_;
};

PayloadBuffer MsBfsRun::pack_pairs(std::vector<VertexPair>& pairs) {
  const std::size_t raw_bytes = raw_pair_wire_bytes(pairs.size());
  std::vector<std::byte> encoded = encode_pair_set(pairs, options_.wire);
  comm_.record_payload_encoding(raw_bytes, encoded.size());
  if (encode_bytes_ != nullptr) encode_bytes_->record(encoded.size());
  return PayloadBuffer(std::move(encoded));
}

void MsBfsRun::cover(VertexId u) {
  // Doubling keeps the growth steps logarithmic; the size stays within
  // twice the highest id read from storage.
  const std::size_t size = std::max<std::size_t>(u + 1, 2 * seen_.size());
  seen_.resize(size, 0);
  pending_.resize(size, 0);
  std::erase_if(source_marks_, [&](const auto& mark) {
    if (mark.first >= size) return false;
    seen_[mark.first] |= mark.second;
    return true;
  });
}

void MsBfsRun::take_pairs(Rank q) {
  pair_scratch_.clear();
  for (const VertexId u : touched_[q]) {
    pair_scratch_.emplace_back(u, pending_[u]);
    pending_[u] = 0;
  }
  touched_[q].clear();
}

void MsBfsRun::discover(VertexId u, std::uint64_t mask) {
  if (u == dst_) {
    // Mirror parallel_oocbfs: the destination is never marked visited or
    // expanded; the level-end collective records which sources arrived.
    found_local_ |= mask;
    return;
  }
  if (u >= seen_.size()) cover(u);
  const std::uint64_t fresh = mask & ~seen_[u];
  if (fresh == 0) return;
  seen_[u] |= fresh;  // sender-side dedup, exactly like the metadata mark
  const Rank q = options_.map_known ? owner(u) : comm_.rank();
  if (q == comm_.rank()) count_discovered(fresh);
  queue(q, u, fresh);
}

void MsBfsRun::merge_candidate(VertexId u, std::uint64_t mask) {
  if (u >= seen_.size()) cover(u);
  const std::uint64_t fresh = mask & ~seen_[u];
  if (fresh == 0) return;
  seen_[u] |= fresh;
  queue(comm_.rank(), u, fresh);
  // Received pairs are owned by this rank (directed sends) or tracked by
  // every rank (broadcast); either way the discovery counts here.
  count_discovered(fresh);
}

void MsBfsRun::expand_frontier() {
  fetch_scratch_.clear();
  fetch_masks_.clear();
  for (const auto& [v, mask] : frontier_) {
    if ((mask & active_) == 0) continue;
    fetch_scratch_.push_back(v);
    fetch_masks_.push_back(mask & active_);
  }
  if (options_.prefetch) db_.prefetch(fetch_scratch_);
  // One batched read for the whole frontier, and ONE adjacency fetch per
  // entry serves every source in its mask — the fetches a per-source
  // sweep would have repeated are the saving.
  db_.get_adjacency_batch(
      fetch_scratch_, [&](std::size_t i, std::span<const VertexId> neighbors) {
        const std::uint64_t m = fetch_masks_[i];
        ++stats_.adjacency_fetches;
        stats_.shared_scans_saved +=
            static_cast<std::uint64_t>(std::popcount(m)) - 1;
        for (const VertexId u : neighbors) {
          ++stats_.edges_scanned;
          discover(u, m);
        }
        return true;
      });
}

void MsBfsRun::exchange_fringe() {
  const int p = comm_.size();
  if (!options_.map_known) {
    // Broadcast mode: ship the locally discovered pairs to everyone.
    // They stay pending: they are this rank's next frontier too.
    pair_scratch_.clear();
    for (const VertexId u : touched_[comm_.rank()]) {
      pair_scratch_.emplace_back(u, pending_[u]);
    }
    comm_.broadcast(kMsBfsFringeTag, pack_pairs(pair_scratch_));
    stats_.fringe_messages += p - 1;
  } else {
    for (Rank q = 0; q < p; ++q) {
      if (q == comm_.rank()) continue;
      take_pairs(q);
      comm_.send(q, kMsBfsFringeTag, pack_pairs(pair_scratch_));
      ++stats_.fringe_messages;
    }
  }
  // Merge in rank order (not arrival order) so every counter is a pure
  // function of the inputs, as in the single-source search.
  std::vector<VertexPair> received;
  for (Rank q = 0; q < p; ++q) {
    if (q == comm_.rank()) continue;
    const Message msg = comm_.recv(kMsBfsFringeTag, q);
    decode_pair_set(msg.payload, received);
    if (decode_bytes_ != nullptr) decode_bytes_->record(msg.payload.size());
    for (const auto& [u, mask] : received) merge_candidate(u, mask);
  }
}

void MsBfsRun::publish_stats() const {
  MetricsRegistry* reg = options_.metrics;
  if (reg == nullptr) return;
  reg->counter("msbfs.queries") += 1;
  reg->counter("msbfs.sources") += sources_.size();
  reg->counter("msbfs.levels") += stats_.levels;
  reg->counter("msbfs.edges_scanned") += stats_.edges_scanned;
  reg->counter("msbfs.adjacency_fetches") += stats_.adjacency_fetches;
  reg->counter("msbfs.shared_scans_saved") += stats_.shared_scans_saved;
  reg->counter("msbfs.fringe_messages") += stats_.fringe_messages;
  if (stats_.truncated) reg->counter("msbfs.truncated") += 1;
}

MsBfsStats MsBfsRun::execute() {
  Timer timer;
  const std::size_t n = sources_.size();
  MSSG_CHECK(n >= 1 && n <= 64);
  touched_.assign(comm_.size(), {});
  discovered_local_.assign(n, 0);
  stats_.distance.assign(n, kUnvisited);
  stats_.discovered.assign(n, 0);
  active_ = n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;

  // Seed the frontier.  Every rank marks every source seen (the dedup
  // filter must agree everywhere); only the owner expands it.  The marks
  // wait aside until the arrays grow over them, so a source id past
  // every stored vertex sizes nothing.
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << i;
    const VertexId s = sources_[i];
    if (s == dst_) {
      stats_.distance[i] = 0;
      active_ &= ~bit;
      continue;
    }
    source_marks_.emplace_back(s, bit);
    if (options_.map_known && owner(s) != comm_.rank()) continue;
    const auto it = std::find_if(frontier_.begin(), frontier_.end(),
                                 [s](const auto& entry) {
                                   return entry.first == s;
                                 });
    if (it == frontier_.end()) {
      frontier_.emplace_back(s, bit);
    } else {
      it->second |= bit;
    }
  }
  std::sort(frontier_.begin(), frontier_.end());

  for (Metadata level = 1; level <= options_.max_levels && active_ != 0;
       ++level) {
    TraceSpan level_span;
    if (options_.metrics != nullptr) {
      level_span = options_.metrics->span("msbfs.level");
    }
    found_local_ = 0;
    const std::uint64_t edges_before = stats_.edges_scanned;

    expand_frontier();
    exchange_fringe();
    ++stats_.levels;

    if (options_.budget != nullptr) {
      options_.budget->charge(stats_.edges_scanned - edges_before);
    }

    // Level-synchronous termination, all collective so every rank agrees:
    // which sources reached dst, is the global frontier empty, and did
    // the query run out of tokens.
    const std::uint64_t found = comm_.allreduce_bor(found_local_) & active_;
    for (std::uint64_t bits = found; bits != 0; bits &= bits - 1) {
      stats_.distance[std::countr_zero(bits)] = level;
    }
    active_ &= ~found;
    if (active_ == 0) break;
    std::vector<VertexId>& next = touched_[comm_.rank()];
    if (comm_.allreduce_sum(next.size()) == 0) break;
    if (comm_.allreduce_or(options_.budget != nullptr &&
                           options_.budget->exhausted())) {
      stats_.truncated = true;
      // Work remains (the frontier is non-empty) and the tokens ran out:
      // THIS is truncation.  The checks above break first when the
      // search completed naturally, so an exact-fit budget that reaches
      // spent == limit on the final level never reports truncation.
      if (options_.budget != nullptr) options_.budget->note_truncation();
      break;
    }

    radix_sort(next, [](VertexId v) { return v; });
    take_pairs(comm_.rank());
    frontier_.swap(pair_scratch_);
  }

  // Per-source discovered counts: owned discoveries are disjoint across
  // ranks (directed mode); broadcast mode tracked the full set on every
  // rank, so counts agree and max() is the global value.
  for (std::size_t i = 0; i < n; ++i) {
    stats_.discovered[i] = options_.map_known
                               ? comm_.allreduce_sum(discovered_local_[i])
                               : comm_.allreduce_max(discovered_local_[i]);
  }

  comm_.barrier();
  stats_.seconds = timer.seconds();
  publish_stats();
  return stats_;
}

}  // namespace

MsBfsStats parallel_msbfs(Communicator& comm, GraphDB& db,
                          std::span<const VertexId> sources, VertexId dst,
                          const MsBfsOptions& options) {
  MsBfsRun run(comm, db, sources, dst, options);
  return run.execute();
}

}  // namespace mssg
