#include "runtime/comm.hpp"

#include <algorithm>
#include <exception>
#include <thread>

namespace mssg {

CommWorld::CommWorld(int size, MetricsRegistry& metrics)
    : size_(size),
      metrics_(metrics),
      messages_sent_(metrics.counter("comm.messages_sent")),
      bytes_sent_(metrics.counter("comm.bytes_sent")),
      payload_bytes_raw_(metrics.counter("comm.payload_bytes_raw")),
      payload_bytes_encoded_(metrics.counter("comm.payload_bytes_encoded")),
      broadcast_copies_avoided_(
          metrics.counter("comm.broadcast_copies_avoided")) {
  MSSG_CHECK(size >= 1);
  mailboxes_.reserve(size);
  for (int i = 0; i < size; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  reduce_slots_.resize(size);
  gather_slots_.resize(size);
}

std::unique_ptr<CommWorld> CommWorld::split(std::uint64_t stream_id) {
  // Private mailboxes/barrier/scratch, shared traffic accounting.
  auto sub = std::make_unique<CommWorld>(size_, metrics_);
  sub->stream_id_ = stream_id;
  return sub;
}

Communicator CommWorld::comm(Rank rank) {
  MSSG_CHECK(rank >= 0 && rank < size_);
  return Communicator(this, rank);
}

void CommWorld::barrier_wait() {
  std::unique_lock lock(barrier_mutex_);
  const std::uint64_t my_generation = barrier_generation_;
  if (++barrier_arrived_ == size_) {
    barrier_arrived_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
    return;
  }
  barrier_cv_.wait(lock,
                   [&] { return barrier_generation_ != my_generation; });
}

void Communicator::send(Rank dest, int tag, PayloadBuffer payload) const {
  MSSG_CHECK(dest >= 0 && dest < size());
  ++world_->messages_sent_;
  world_->bytes_sent_ += payload.size();
  world_->mailboxes_[dest]->push(Message{tag, rank_, std::move(payload)});
}

void Communicator::broadcast(int tag, PayloadBuffer payload) const {
  if (size() <= 1) return;
  // Enqueue references to the one shared buffer; every peer after the
  // first would have required a deep copy under the owned-vector wire.
  for (Rank r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    send(r, tag, payload);
  }
  world_->broadcast_copies_avoided_ += static_cast<std::uint64_t>(size() - 1);
}

void Communicator::record_payload_encoding(std::size_t raw_bytes,
                                           std::size_t encoded_bytes) const {
  world_->payload_bytes_raw_ += raw_bytes;
  world_->payload_bytes_encoded_ += encoded_bytes;
}

std::uint64_t Communicator::allreduce_sum(std::uint64_t value) const {
  world_->reduce_slots_[rank_].value = value;
  barrier();
  std::uint64_t total = 0;
  for (int r = 0; r < size(); ++r) total += world_->reduce_slots_[r].value;
  barrier();
  return total;
}

std::uint64_t Communicator::allreduce_max(std::uint64_t value) const {
  world_->reduce_slots_[rank_].value = value;
  barrier();
  std::uint64_t best = 0;
  for (int r = 0; r < size(); ++r) {
    best = std::max(best, world_->reduce_slots_[r].value);
  }
  barrier();
  return best;
}

std::uint64_t Communicator::allreduce_min(std::uint64_t value) const {
  world_->reduce_slots_[rank_].value = value;
  barrier();
  std::uint64_t best = ~std::uint64_t{0};
  for (int r = 0; r < size(); ++r) {
    best = std::min(best, world_->reduce_slots_[r].value);
  }
  barrier();
  return best;
}

std::uint64_t Communicator::allreduce_bor(std::uint64_t value) const {
  world_->reduce_slots_[rank_].value = value;
  barrier();
  std::uint64_t merged = 0;
  for (int r = 0; r < size(); ++r) merged |= world_->reduce_slots_[r].value;
  barrier();
  return merged;
}

std::vector<PayloadBuffer> Communicator::allgather(
    PayloadBuffer contribution) const {
  // Each rank deposits its payload exactly once; the fan-out to the
  // other p-1 ranks is reference sharing, not wire traffic, so the
  // collective charges one message of contribution-size bytes per rank.
  ++world_->messages_sent_;
  world_->bytes_sent_ += contribution.size();
  world_->gather_slots_[rank_] = std::move(contribution);
  barrier();
  std::vector<PayloadBuffer> all = world_->gather_slots_;
  barrier();
  // The second barrier guarantees every rank has taken its references,
  // so this rank's slot can drop its reference now instead of pinning
  // the payload until the next collective.  Only rank r touches slot r
  // outside the two barriers, so no synchronization beyond them is
  // needed.
  world_->gather_slots_[rank_] = PayloadBuffer();
  return all;
}

void run_cluster(CommWorld& world,
                 const std::function<void(Communicator&)>& body) {
  const int size = world.size();
  std::vector<std::thread> threads;
  threads.reserve(size);
  std::mutex error_mutex;
  std::exception_ptr first_error;

  for (Rank r = 0; r < size; ++r) {
    threads.emplace_back([&world, &body, &error_mutex, &first_error, r] {
      try {
        Communicator comm = world.comm(r);
        body(comm);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void run_cluster(int size, const std::function<void(Communicator&)>& body) {
  MetricsRegistry traffic;
  CommWorld world(size, traffic);
  run_cluster(world, body);
}

}  // namespace mssg
