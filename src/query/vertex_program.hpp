// Semi-external-memory vertex-program engine (FlashGraph/Graphyti
// style): vertex state lives in memory, edge lists stream from the
// GraphDB through the BlockCache/IoEngine prefetch path, and algorithms
// are expressed as per-superstep gather/apply/scatter kernels instead of
// bespoke copies of the BFS skeleton.
//
// Execution model (level-synchronous BSP):
//
//   superstep S:
//     1. scatter  — every active vertex is expanded once, in ascending
//                   id order; the frontier's adjacency lists come from
//                   one batched GraphDB read (prefetched when enabled)
//                   and the kernel emits (target, value) messages into
//                   per-owner buckets.
//     2. exchange — one message per peer per superstep (empty allowed),
//                   buckets shipped through the vertex_codec pair wire
//                   (sort + delta + LEB128 with raw passthrough) and
//                   merged in RANK ORDER, not arrival order, so every
//                   counter and every floating-point reduction is a
//                   pure function of the inputs.
//     3. apply    — delivered messages are sorted and grouped by target
//                   vertex; the kernel folds each group into the
//                   vertex's state and votes whether the vertex is
//                   active next superstep.  The next frontier is
//                   tracked in a DynamicBitset over state slots.
//     4. barrier  — collective termination: token-budget check, the
//                   kernel's keep_running vote, and the global active
//                   count are all allreduced, so every rank agrees.
//
// Messages are (VertexId, uint64) pairs: label candidates, BFS levels,
// weighted distances, decrement counts — PageRank bit-casts its doubles
// (positive IEEE-754 doubles order-preserve as uint64, so the sorted
// wire also sorts by value and FP sums are partition-independent).
//
// Semi-external-memory contract: per-vertex state is O(local vertices)
// in memory; adjacency lists are only ever streamed (never retained),
// one frontier's worth per superstep.  Requires vertex-granularity
// hash-mod declustering (owner(v) = v mod p known everywhere), the
// experiments' standard configuration.  Kernels keep all mutable state
// query-private, so engine runs are concurrent-safe and schedulable
// through QueryScheduler next to ms-bfs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitset.hpp"
#include "common/vertex_codec.hpp"
#include "graphdb/graphdb.hpp"
#include "query/query_budget.hpp"
#include "runtime/comm.hpp"

namespace mssg {

class Histogram;
class MetricsRegistry;

struct VertexProgramOptions {
  /// Wire format for the (vertex, value) message pairs.
  WireFormat wire = WireFormat::kDelta;
  /// Hint each frontier to the GraphDB before expanding it (BlockCache /
  /// IoEngine read-ahead).  A hint only: results are identical either way.
  bool prefetch = true;
  /// Safety bound on supersteps.
  std::uint64_t max_supersteps = 100000;
  /// When set, publishes "vp.*" counters into this rank's registry.
  MetricsRegistry* metrics = nullptr;
  /// Cooperative token budget (tokens = adjacency entries streamed,
  /// summed across ranks).  Checked collectively at superstep
  /// boundaries AFTER the natural-completion checks, so a budget of
  /// exactly the work remaining never reports truncation.
  QueryBudget* budget = nullptr;
};

struct VertexProgramStats {
  std::uint64_t supersteps = 0;          ///< supersteps executed (global)
  std::uint64_t vertices_scattered = 0;  ///< frontier expansions (this rank)
  std::uint64_t edges_scanned = 0;       ///< adjacency entries read (this rank)
  std::uint64_t messages_delivered = 0;  ///< pairs applied (this rank)
  std::uint64_t fringe_messages = 0;     ///< per-peer sends (this rank)
  std::uint64_t combines = 0;            ///< pairs merged by the combiner
  bool truncated = false;                ///< token budget cut the run short
  double seconds = 0;
};

/// Scatter-phase message collector; routes to owner buckets.
class MessageSink {
 public:
  virtual void emit(VertexId target, std::uint64_t value) = 0;

 protected:
  ~MessageSink() = default;
};

/// Collective facts handed to the kernel before init: every rank sees
/// the same global_vertices (locally stored vertices, allreduced).
struct VertexProgramInfo {
  std::uint64_t global_vertices = 0;
  int ranks = 1;
  Rank rank = 0;
};

/// A vertex-program kernel.  One instance per (query, rank): the engine
/// never shares a kernel across rank threads, so kernels need no locks.
class VertexProgram {
 public:
  virtual ~VertexProgram() = default;

  /// Called once, before init, with the collective run facts.
  virtual void begin(const VertexProgramInfo& info) { (void)info; }

  /// Initial state for a locally stored vertex; set `active` to seed the
  /// first frontier.  Also called lazily when a message reaches a vertex
  /// this rank owns but never stored (degree-0 locally).
  virtual std::uint64_t init(VertexId v, bool& active) = 0;

  /// Dense kernels (PageRank) expand EVERY local vertex each superstep
  /// and apply every vertex, message or not; termination is the
  /// keep_running vote alone.
  [[nodiscard]] virtual bool dense() const { return false; }

  /// When true, same-target messages pre-combine in the send buckets
  /// (and the local inbox), shrinking the wire.  combine() must be
  /// associative and commutative; kernels whose fold is order-sensitive
  /// (floating-point sums) leave this off so the delivered multiset —
  /// and therefore the result — is identical for every rank count.
  [[nodiscard]] virtual bool has_combiner() const { return false; }
  [[nodiscard]] virtual std::uint64_t combine(std::uint64_t a,
                                              std::uint64_t b) const {
    return a < b ? a : b;
  }

  /// When true, apply() receives the target's adjacency list (triangle
  /// membership probes); the fetch is charged as edges_scanned.
  [[nodiscard]] virtual bool apply_needs_adjacency() const { return false; }

  /// Expand one active vertex: read state, emit messages.  `state` is
  /// mutable so kernels can fold per-expansion bookkeeping (k-core's
  /// notified bit) without a side table.
  virtual void scatter(VertexId v, std::uint64_t& state,
                       std::span<const VertexId> neighbors,
                       MessageSink& sink) = 0;

  /// Fold the messages delivered to `v` (sorted ascending) into its
  /// state; return true to activate `v` for the next superstep.
  /// `neighbors` is empty unless apply_needs_adjacency().
  virtual bool apply(VertexId v, std::uint64_t& state,
                     std::span<const std::uint64_t> messages,
                     std::span<const VertexId> neighbors) = 0;

  /// Per-superstep collective aggregate: the engine allreduce_min's this
  /// over all ranks and hands the result to set_aggregate on every rank.
  /// Delta-stepping publishes its next bucket; BFS publishes the found
  /// level.  Default ~0 is the identity.
  [[nodiscard]] virtual std::uint64_t aggregate() const {
    return ~std::uint64_t{0};
  }
  virtual void set_aggregate(std::uint64_t global_min) { (void)global_min; }

  /// After set_aggregate: kernels may wake dormant local vertices (a
  /// newly opened delta-stepping bucket) by appending their ids.
  virtual void collect_activations(std::vector<VertexId>& out) { (void)out; }

  /// Collective continue vote, polled after superstep `superstep`
  /// completed.  The engine allreduce_or's it: any rank voting true
  /// keeps every rank running.  Kernels derive halt decisions from
  /// set_aggregate data so the vote agrees everywhere.
  [[nodiscard]] virtual bool keep_running(std::uint64_t superstep) const {
    (void)superstep;
    return true;
  }
};

/// Runs kernels over one rank's GraphDB.  Collective: every rank of
/// `comm` constructs an engine and calls run() with an equivalent
/// kernel.  Does NOT touch the GraphDB metadata store.
class VertexProgramEngine {
 public:
  VertexProgramEngine(Communicator& comm, GraphDB& db,
                      const VertexProgramOptions& options = {});

  VertexProgramEngine(const VertexProgramEngine&) = delete;
  VertexProgramEngine& operator=(const VertexProgramEngine&) = delete;

  VertexProgramStats run(VertexProgram& program);

  /// Post-run state access for result extraction.  Iterates every state
  /// slot (locally stored vertices plus lazily created message targets)
  /// as f(VertexId, std::uint64_t state), in ascending vertex order.
  template <typename F>
  void for_each_state(F&& f) const {
    for (const std::uint32_t slot : sorted_slots()) {
      f(ids_[slot], state_[slot]);
    }
  }

  /// Locally stored vertices (lazily created slots excluded).
  [[nodiscard]] std::uint64_t local_stored_vertices() const {
    return initial_vertices_;
  }

  [[nodiscard]] const VertexProgramInfo& info() const { return info_; }

 private:
  class Sink;
  friend class Sink;

  [[nodiscard]] Rank owner(VertexId v) const {
    return static_cast<Rank>(v % static_cast<std::uint64_t>(comm_.size()));
  }
  std::uint32_t ensure_slot(VertexProgram& program, VertexId v);
  [[nodiscard]] const std::vector<std::uint32_t>& sorted_slots() const;
  void load_local_vertices(VertexProgram& program);
  void scatter_frontier(VertexProgram& program, Sink& sink);
  void exchange(Sink& sink);
  void apply_inbox(VertexProgram& program);
  [[nodiscard]] PayloadBuffer pack_pairs(std::vector<VertexPair>& pairs);
  void publish_stats() const;

  Communicator& comm_;
  GraphDB& db_;
  VertexProgramOptions options_;
  Histogram* encode_bytes_;
  Histogram* decode_bytes_;
  VertexProgramInfo info_;
  VertexProgramStats stats_;

  // Vertex state: id <-> slot maps plus one uint64 per slot.  Slots are
  // append-only; `sorted_ids_` caches the ascending iteration order and
  // is refreshed only when a lazy slot lands (sorted_dirty_).
  std::unordered_map<VertexId, std::uint32_t> index_;
  std::vector<VertexId> ids_;
  std::vector<std::uint64_t> state_;
  std::uint64_t initial_vertices_ = 0;
  mutable std::vector<std::uint32_t> sorted_slots_;
  mutable bool sorted_dirty_ = false;

  // Frontier: current superstep's sorted vertex ids, and the bitset that
  // dedups next-superstep activations slot-by-slot.
  std::vector<VertexId> frontier_;
  std::vector<VertexId> next_frontier_;
  DynamicBitset next_active_;

  std::vector<VertexPair> inbox_;
  std::vector<VertexId> adjacency_scratch_;
  std::vector<std::uint64_t> value_scratch_;
  std::vector<VertexId> activation_scratch_;
};

}  // namespace mssg
