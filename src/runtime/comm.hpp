// MPI-flavoured communicator over in-process mailboxes.
//
// The thesis evaluates MSSG on a 64-node cluster with DataCutter/MPI as
// transport.  No MPI installation is assumed here: CommWorld provides p
// ranks (threads) with send/recv/probe plus the collectives the
// framework needs (barrier, broadcast, allreduce, allgather).  Message
// counts and synchronization structure are identical to the MPI runs;
// only the wire is simulated.
//
// Payloads are shared immutable PayloadBuffers (runtime/payload.hpp):
// broadcast builds the payload once and enqueues p-1 references, and
// allgather hands every rank references into the shared slot table, so
// a B-byte collective costs O(B) memory total instead of O(p*B).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "runtime/mailbox.hpp"

namespace mssg {

class Communicator;

/// Shared state for a group of ranks.  Create once, then hand each rank a
/// Communicator via comm(rank).
///
/// Traffic is counted straight into the registry given at construction
/// (relaxed atomics, readable while senders run): "comm.messages_sent",
/// "comm.bytes_sent", "comm.broadcast_copies_avoided", and the codec's
/// "comm.payload_bytes_raw" / "comm.payload_bytes_encoded" — what the
/// shipped payloads would have cost raw vs what they cost encoded (see
/// common/vertex_codec.hpp).
class CommWorld {
 public:
  /// `metrics` must outlive the world and every split() of it.
  CommWorld(int size, MetricsRegistry& metrics);

  CommWorld(const CommWorld&) = delete;
  CommWorld& operator=(const CommWorld&) = delete;

  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] Communicator comm(Rank rank);

  /// Derives a sub-world with the same rank count but PRIVATE mailboxes,
  /// barrier, and collective scratch — the isolation the concurrent
  /// query engine needs so interleaved queries cannot cross message
  /// streams or collide inside a collective.  Traffic counts into the
  /// parent's registry, so cluster-level comm.* metrics keep
  /// accumulating across every stream.  `stream_id` labels the split for
  /// diagnostics.
  [[nodiscard]] std::unique_ptr<CommWorld> split(std::uint64_t stream_id);

  /// 0 for a root world; the id passed to split() otherwise.
  [[nodiscard]] std::uint64_t stream_id() const { return stream_id_; }

  /// Bytes currently retained in the allgather scratch slots.  Zero when
  /// no collective is in flight (slots release their references once
  /// every rank has copied out); only meaningful between cluster runs
  /// (quiescent).
  [[nodiscard]] std::size_t gather_slot_bytes() const {
    std::size_t total = 0;
    for (const auto& slot : gather_slots_) total += slot.size();
    return total;
  }

 private:
  friend class Communicator;

  void barrier_wait();

  // One allreduce slot per rank, padded to a cache line: every rank
  // writes its own slot and reads all of them inside every collective,
  // so adjacent uint64_t entries would false-share a line across all
  // rank threads.
  struct alignas(64) ReduceSlot {
    std::uint64_t value = 0;
  };
  static_assert(sizeof(ReduceSlot) == 64,
                "reduce slots must each own a full cache line");

  int size_;
  std::uint64_t stream_id_ = 0;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  // Central barrier (sense-reversing via generation counter).
  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_arrived_ = 0;
  std::uint64_t barrier_generation_ = 0;

  // Scratch for allreduce/allgather: one slot per rank.
  std::vector<ReduceSlot> reduce_slots_;
  std::vector<PayloadBuffer> gather_slots_;

  // Traffic handles into metrics_ (see the class comment).
  MetricsRegistry& metrics_;
  Counter& messages_sent_;
  Counter& bytes_sent_;
  Counter& payload_bytes_raw_;
  Counter& payload_bytes_encoded_;
  Counter& broadcast_copies_avoided_;
};

/// A rank's endpoint.  Cheap to copy; all state lives in the CommWorld.
class Communicator {
 public:
  [[nodiscard]] Rank rank() const { return rank_; }
  [[nodiscard]] int size() const { return world_->size(); }

  /// Non-blocking (infinitely buffered) point-to-point send.  The
  /// payload converts from std::vector<std::byte> (one allocation) or
  /// passes through as an already-shared buffer (zero).
  void send(Rank dest, int tag, PayloadBuffer payload) const;

  /// Sends the same payload to every other rank (self excluded).  The
  /// payload is allocated exactly once; each peer's mailbox receives a
  /// reference ("comm.broadcast_copies_avoided" counts the p-1 deep
  /// copies this replaces).  Wire accounting still charges the payload
  /// once per peer — the simulated interconnect ships it p-1 times.
  void broadcast(int tag, PayloadBuffer payload) const;

  /// Records one encoded payload's compression outcome into the world's
  /// codec counters.  Called by the query/ingest layers next to their
  /// encode_*_set calls (the communicator itself is payload-agnostic).
  void record_payload_encoding(std::size_t raw_bytes,
                               std::size_t encoded_bytes) const;

  /// Blocking selective receive.
  [[nodiscard]] Message recv(int tag = kAnyTag, Rank source = kAnyRank) const {
    return world_->mailboxes_[rank_]->recv(tag, source);
  }

  [[nodiscard]] std::optional<Message> try_recv(int tag = kAnyTag,
                                                Rank source = kAnyRank) const {
    return world_->mailboxes_[rank_]->try_recv(tag, source);
  }

  [[nodiscard]] bool probe(int tag = kAnyTag, Rank source = kAnyRank) const {
    return world_->mailboxes_[rank_]->probe(tag, source);
  }

  /// Collective: all ranks must call.
  void barrier() const { world_->barrier_wait(); }

  /// Collective sum / max / min / logical-or over one value per rank.
  [[nodiscard]] std::uint64_t allreduce_sum(std::uint64_t value) const;
  [[nodiscard]] std::uint64_t allreduce_max(std::uint64_t value) const;
  [[nodiscard]] std::uint64_t allreduce_min(std::uint64_t value) const;
  [[nodiscard]] bool allreduce_or(bool value) const {
    return allreduce_max(value ? 1 : 0) != 0;
  }

  /// Collective bitwise OR — how the multi-source BFS merges its 64-bit
  /// per-source found/active masks in one exchange per level.
  [[nodiscard]] std::uint64_t allreduce_bor(std::uint64_t value) const;

  /// Collective: every rank contributes a byte buffer, all ranks receive
  /// all buffers (indexed by rank) as shared references — a p-rank
  /// allgather of B bytes costs O(B) total, not O(p*B).  Traffic
  /// accounting charges each rank's contribution once (one message, B
  /// bytes): the shared-memory collective deposits each payload a single
  /// time, unlike broadcast's per-peer wire fan-out.
  [[nodiscard]] std::vector<PayloadBuffer> allgather(
      PayloadBuffer contribution) const;

 private:
  friend class CommWorld;
  Communicator(CommWorld* world, Rank rank) : world_(world), rank_(rank) {}

  CommWorld* world_;
  Rank rank_;
};

/// Runs `body(comm)` on `size` threads, one per rank, propagating the
/// first exception thrown by any rank.  This is the simulated cluster
/// job launcher (mpirun analogue).  The throwaway world's traffic is
/// counted nowhere anyone can read.
void run_cluster(int size, const std::function<void(Communicator&)>& body);

/// Variant reusing an existing world (so its registry sees the traffic).
void run_cluster(CommWorld& world,
                 const std::function<void(Communicator&)>& body);

}  // namespace mssg
