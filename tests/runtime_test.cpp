#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <span>
#include <cstring>
#include <numeric>
#include <thread>

#include "runtime/comm.hpp"
#include "runtime/filter.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/stream.hpp"

namespace mssg {
namespace {

std::vector<std::byte> payload_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

std::string string_of(std::span<const std::byte> bytes) {
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

// ---- Mailbox ---------------------------------------------------------------

TEST(Mailbox, FifoWithinMatchingMessages) {
  Mailbox box;
  box.push({1, 0, payload_of("a")});
  box.push({1, 0, payload_of("b")});
  EXPECT_EQ(string_of(box.recv(1).payload), "a");
  EXPECT_EQ(string_of(box.recv(1).payload), "b");
}

TEST(Mailbox, SelectiveReceiveByTag) {
  Mailbox box;
  box.push({1, 0, payload_of("one")});
  box.push({2, 0, payload_of("two")});
  EXPECT_EQ(string_of(box.recv(2).payload), "two");
  EXPECT_EQ(string_of(box.recv(1).payload), "one");
}

TEST(Mailbox, SelectiveReceiveBySource) {
  Mailbox box;
  box.push({1, 5, payload_of("from5")});
  box.push({1, 3, payload_of("from3")});
  EXPECT_EQ(box.recv(kAnyTag, 3).source, 3);
  EXPECT_EQ(box.recv(kAnyTag, 5).source, 5);
}

TEST(Mailbox, TryRecvReturnsNulloptWhenNoMatch) {
  Mailbox box;
  EXPECT_FALSE(box.try_recv().has_value());
  box.push({7, 0, {}});
  EXPECT_FALSE(box.try_recv(8).has_value());
  EXPECT_TRUE(box.try_recv(7).has_value());
}

TEST(Mailbox, ProbeDoesNotConsume) {
  Mailbox box;
  box.push({4, 0, {}});
  EXPECT_TRUE(box.probe(4));
  EXPECT_TRUE(box.probe(4));
  EXPECT_EQ(box.pending(), 1u);
}

TEST(Mailbox, TargetedWakeupServesSelectiveBlockedReceivers) {
  // Two receivers block on different tags; each push must wake exactly
  // the matching one (the old notify_all + rescan woke everyone for
  // every message).  Delivery order is intentionally inverted vs the
  // receiver start order.
  Mailbox box;
  std::string got1, got2;
  std::thread r1([&] { got1 = string_of(box.recv(1).payload); });
  std::thread r2([&] { got2 = string_of(box.recv(2).payload); });
  // Give both receivers time to register as waiters.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  box.push({2, 0, payload_of("two")});
  box.push({1, 0, payload_of("one")});
  r1.join();
  r2.join();
  EXPECT_EQ(got1, "one");
  EXPECT_EQ(got2, "two");
  EXPECT_EQ(box.pending(), 0u);
}

// ---- PayloadBuffer ---------------------------------------------------------

TEST(PayloadBuffer, DefaultIsEmptyWithoutAllocation) {
  const PayloadBuffer empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.data(), nullptr);
  EXPECT_EQ(empty.use_count(), 0);
  EXPECT_TRUE(empty.span().empty());
}

TEST(PayloadBuffer, AdoptsVectorStorageAndSharesByReference) {
  PayloadBuffer a = payload_of("shared bytes");
  EXPECT_EQ(a.size(), 12u);
  EXPECT_EQ(a.use_count(), 1);
  const PayloadBuffer b = a;  // reference, not copy
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(string_of(b), "shared bytes");
  // Distinct buffers with equal content do not share storage.
  const PayloadBuffer c = payload_of("shared bytes");
  EXPECT_FALSE(a.shares_storage_with(c));
}

// ---- Communicator ----------------------------------------------------------

TEST(Comm, PointToPointRoundTrip) {
  run_cluster(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 10, payload_of("ping"));
      const auto reply = comm.recv(11);
      EXPECT_EQ(string_of(reply.payload), "pong");
      EXPECT_EQ(reply.source, 1);
    } else {
      const auto msg = comm.recv(10);
      EXPECT_EQ(string_of(msg.payload), "ping");
      comm.send(0, 11, payload_of("pong"));
    }
  });
}

TEST(Comm, BroadcastReachesEveryoneElse) {
  constexpr int kRanks = 5;
  std::atomic<int> received{0};
  run_cluster(kRanks, [&](Communicator& comm) {
    if (comm.rank() == 2) {
      comm.broadcast(20, payload_of("hello"));
    } else {
      const auto msg = comm.recv(20);
      EXPECT_EQ(msg.source, 2);
      ++received;
    }
  });
  EXPECT_EQ(received.load(), kRanks - 1);
}

TEST(Comm, AllreduceSumAndMax) {
  run_cluster(6, [](Communicator& comm) {
    const auto rank = static_cast<std::uint64_t>(comm.rank());
    EXPECT_EQ(comm.allreduce_sum(rank), 0u + 1 + 2 + 3 + 4 + 5);
    EXPECT_EQ(comm.allreduce_max(rank * 10), 50u);
    EXPECT_TRUE(comm.allreduce_or(comm.rank() == 3));
    EXPECT_FALSE(comm.allreduce_or(false));
  });
}

TEST(Comm, ConsecutiveAllreducesDoNotInterfere) {
  run_cluster(4, [](Communicator& comm) {
    for (std::uint64_t i = 0; i < 50; ++i) {
      EXPECT_EQ(comm.allreduce_sum(i), i * 4);
    }
  });
}

TEST(Comm, AllgatherCollectsAllContributions) {
  run_cluster(3, [](Communicator& comm) {
    const auto all =
        comm.allgather(payload_of("r" + std::to_string(comm.rank())));
    ASSERT_EQ(all.size(), 3u);
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(string_of(all[r]), "r" + std::to_string(r));
    }
  });
}

TEST(Comm, AllgatherReleasesScratchSlots) {
  // Regression: the gather slots used to retain every rank's last
  // contribution until the next collective, pinning one buffer per rank
  // for the lifetime of the world (megabytes on fringe-sized payloads).
  MetricsRegistry traffic;
  CommWorld world(4, traffic);
  run_cluster(world, [](Communicator& comm) {
    const std::vector<std::byte> big(64 * 1024,
                                     std::byte(0x40 + comm.rank()));
    const auto all = comm.allgather(big);
    ASSERT_EQ(all.size(), 4u);
    for (int r = 0; r < 4; ++r) {
      ASSERT_EQ(all[r].size(), big.size());
      EXPECT_EQ(all[r][0], std::byte(0x40 + r));
    }
  });
  EXPECT_EQ(world.gather_slot_bytes(), 0u);
}

TEST(Comm, BroadcastSharesOnePayloadAllocation) {
  // The zero-copy contract: a broadcast of B bytes to p-1 peers is one
  // payload allocation; every mailbox holds a reference to it.
  constexpr int kRanks = 5;
  MetricsRegistry traffic;
  CommWorld world(kRanks, traffic);
  std::vector<PayloadBuffer> received(kRanks);
  run_cluster(world, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.broadcast(30, payload_of("one allocation"));
    } else {
      received[comm.rank()] = comm.recv(30).payload;
    }
  });
  for (int r = 2; r < kRanks; ++r) {
    EXPECT_TRUE(received[1].shares_storage_with(received[r]));
  }
  EXPECT_EQ(received[1].use_count(), kRanks - 1);
  EXPECT_EQ(traffic.counter("comm.broadcast_copies_avoided"), kRanks - 1u);
  // The simulated wire still charges the payload once per peer.
  EXPECT_EQ(traffic.counter("comm.messages_sent").load(), kRanks - 1u);
  EXPECT_EQ(traffic.counter("comm.bytes_sent").load(), (kRanks - 1u) * 14u);
}

TEST(Comm, AllgatherChargesEachContributionOnceNotPerRank) {
  // Collective accounting regression: the shared-slot allgather deposits
  // each rank's payload a single time, so p ranks contributing B bytes
  // cost p messages and sum(B) bytes — not p^2 and p*sum(B).
  constexpr int kRanks = 4;
  MetricsRegistry traffic;
  CommWorld world(kRanks, traffic);
  run_cluster(world, [](Communicator& comm) {
    const std::vector<std::byte> contribution(
        static_cast<std::size_t>(comm.rank() + 1) * 10, std::byte{0x5a});
    const auto all = comm.allgather(contribution);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(kRanks));
  });
  EXPECT_EQ(traffic.counter("comm.messages_sent"),
            static_cast<std::uint64_t>(kRanks));
  EXPECT_EQ(traffic.counter("comm.bytes_sent").load(), 10u + 20u + 30u + 40u);
}

TEST(Comm, AllgatherReturnsSharedBufferReferences) {
  // Every rank's view of slot r references rank r's single allocation:
  // O(B) total memory for the collective, not O(p*B).
  constexpr int kRanks = 3;
  std::vector<std::vector<PayloadBuffer>> views(kRanks);
  run_cluster(kRanks, [&](Communicator& comm) {
    views[comm.rank()] =
        comm.allgather(payload_of("rank" + std::to_string(comm.rank())));
  });
  for (int slot = 0; slot < kRanks; ++slot) {
    EXPECT_EQ(string_of(views[0][slot]), "rank" + std::to_string(slot));
    for (int viewer = 1; viewer < kRanks; ++viewer) {
      EXPECT_TRUE(views[0][slot].shares_storage_with(views[viewer][slot]));
    }
  }
}

TEST(Comm, BarrierOrdersPhases) {
  constexpr int kRanks = 8;
  std::atomic<int> phase1{0};
  std::atomic<bool> violated{false};
  run_cluster(kRanks, [&](Communicator& comm) {
    ++phase1;
    comm.barrier();
    if (phase1.load() != kRanks) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST(Comm, ExceptionInOneRankPropagates) {
  EXPECT_THROW(run_cluster(3,
                           [](Communicator& comm) {
                             if (comm.rank() == 1) {
                               throw StorageError("rank 1 exploded");
                             }
                           }),
               StorageError);
}

TEST(Comm, TrafficCountersAccumulate) {
  MetricsRegistry traffic;
  CommWorld world(2, traffic);
  run_cluster(world, [](Communicator& comm) {
    if (comm.rank() == 0) comm.send(1, 1, payload_of("abcd"));
    comm.barrier();
  });
  EXPECT_EQ(traffic.counter("comm.messages_sent").load(), 1u);
  EXPECT_EQ(traffic.counter("comm.bytes_sent").load(), 4u);
}

// Regression: the traffic counters used to be plain ints guarded only on
// the write side, so a monitor thread polling them mid-run was a data
// race (TSan flagged comm.cpp's send path).  They are registry counters
// (relaxed atomics) now; this test recreates the racing reader and must
// stay TSan-clean.
TEST(Comm, TrafficCountersReadableWhileSendersRun) {
  constexpr int kRanks = 4;
  constexpr int kMessages = 500;
  MetricsRegistry traffic;
  CommWorld world(kRanks, traffic);

  const Counter& sent = traffic.counter("comm.messages_sent");
  const Counter& bytes = traffic.counter("comm.bytes_sent");
  std::atomic<bool> done{false};
  std::uint64_t observed = 0;
  std::thread monitor([&] {
    while (!done.load(std::memory_order_acquire)) {
      observed = std::max(observed, sent.load() + bytes.load());
    }
  });

  run_cluster(world, [](Communicator& comm) {
    const Rank peer = (comm.rank() + 1) % comm.size();
    for (int i = 0; i < kMessages; ++i) {
      comm.send(peer, 1, payload_of("12345678"));
    }
    for (int i = 0; i < kMessages; ++i) (void)comm.recv(1);
  });
  done.store(true, std::memory_order_release);
  monitor.join();

  EXPECT_EQ(sent.load(), kRanks * kMessages);
  EXPECT_EQ(bytes.load(), kRanks * kMessages * 8u);
  EXPECT_LE(observed, sent.load() + bytes.load());
}

// ---- DataStream ------------------------------------------------------------

TEST(Stream, PutGetFifo) {
  DataStream s;
  s.put(payload_of("1"));
  s.put(payload_of("2"));
  EXPECT_EQ(string_of(*s.get()), "1");
  EXPECT_EQ(string_of(*s.get()), "2");
}

TEST(Stream, CloseSignalsEndOfStreamAfterDrain) {
  DataStream s;
  s.put(payload_of("last"));
  s.close();
  EXPECT_TRUE(s.get().has_value());
  EXPECT_FALSE(s.get().has_value());
}

TEST(Stream, PutAfterCloseDropsBuffer) {
  DataStream s;
  s.close();
  s.put(payload_of("late"));
  EXPECT_FALSE(s.get().has_value());
}

// ---- FilterGraph -----------------------------------------------------------

class NumberProducer final : public Filter {
 public:
  explicit NumberProducer(int count) : count_(count) {}
  void run(FilterContext& ctx) override {
    for (int i = 0; i < count_; ++i) {
      std::vector<std::byte> buf(sizeof(int));
      std::memcpy(buf.data(), &i, sizeof(int));
      // Route across all consumer copies round-robin.
      const auto width = static_cast<int>(ctx.output_width("out"));
      ctx.output("out", i % width).put(std::move(buf));
    }
  }

 private:
  int count_;
};

class SumConsumer final : public Filter {
 public:
  explicit SumConsumer(std::atomic<int>& total) : total_(total) {}
  void run(FilterContext& ctx) override {
    while (auto buf = ctx.input("in").get()) {
      int value;
      std::memcpy(&value, buf->data(), sizeof(int));
      total_ += value;
    }
  }

 private:
  std::atomic<int>& total_;
};

TEST(FilterGraph, SingleProducerSingleConsumer) {
  std::atomic<int> total{0};
  FilterGraph graph;
  graph.add_filter("producer",
                   [] { return std::make_unique<NumberProducer>(100); });
  graph.add_filter("consumer",
                   [&] { return std::make_unique<SumConsumer>(total); });
  graph.connect("producer", "out", "consumer", "in");
  graph.run();
  EXPECT_EQ(total.load(), 99 * 100 / 2);
}

TEST(FilterGraph, TransparentCopiesShareTheWork) {
  std::atomic<int> total{0};
  FilterGraph graph;
  graph.add_filter("producer",
                   [] { return std::make_unique<NumberProducer>(100); }, 2);
  graph.add_filter("consumer",
                   [&] { return std::make_unique<SumConsumer>(total); }, 4);
  graph.connect("producer", "out", "consumer", "in");
  graph.run();
  EXPECT_EQ(total.load(), 2 * (99 * 100 / 2));  // both producer copies ran
}

TEST(FilterGraph, AddressedRoutingReachesChosenCopy) {
  // Each consumer copy records which values it saw; producer copy 0 sends
  // value i to consumer i % copies.
  constexpr int kConsumers = 3;
  std::vector<std::vector<int>> seen(kConsumers);
  std::mutex seen_mutex;

  class RecordingConsumer final : public Filter {
   public:
    RecordingConsumer(std::vector<std::vector<int>>& seen, std::mutex& mutex)
        : seen_(seen), mutex_(mutex) {}
    void run(FilterContext& ctx) override {
      while (auto buf = ctx.input("in").get()) {
        int value;
        std::memcpy(&value, buf->data(), sizeof(int));
        std::lock_guard lock(mutex_);
        seen_[ctx.copy_index()].push_back(value);
      }
    }

   private:
    std::vector<std::vector<int>>& seen_;
    std::mutex& mutex_;
  };

  FilterGraph graph;
  graph.add_filter("producer",
                   [] { return std::make_unique<NumberProducer>(30); });
  graph.add_filter(
      "consumer",
      [&] { return std::make_unique<RecordingConsumer>(seen, seen_mutex); },
      kConsumers);
  graph.connect("producer", "out", "consumer", "in");
  graph.run();

  for (int c = 0; c < kConsumers; ++c) {
    for (int value : seen[c]) EXPECT_EQ(value % kConsumers, c);
  }
  EXPECT_EQ(seen[0].size() + seen[1].size() + seen[2].size(), 30u);
}

TEST(FilterGraph, PipelineOfThreeStages) {
  class Doubler final : public Filter {
   public:
    void run(FilterContext& ctx) override {
      while (auto buf = ctx.input("in").get()) {
        int value;
        std::memcpy(&value, buf->data(), sizeof(int));
        value *= 2;
        std::vector<std::byte> out(sizeof(int));
        std::memcpy(out.data(), &value, sizeof(int));
        ctx.output("out", 0).put(std::move(out));
      }
    }
  };

  std::atomic<int> total{0};
  FilterGraph graph;
  graph.add_filter("producer",
                   [] { return std::make_unique<NumberProducer>(10); });
  graph.add_filter("doubler", [] { return std::make_unique<Doubler>(); });
  graph.add_filter("consumer",
                   [&] { return std::make_unique<SumConsumer>(total); });
  graph.connect("producer", "out", "doubler", "in");
  graph.connect("doubler", "out", "consumer", "in");
  graph.run();
  EXPECT_EQ(total.load(), 2 * (9 * 10 / 2));
}

TEST(FilterGraph, ErrorInFilterPropagatesAndTerminates) {
  class Exploder final : public Filter {
   public:
    void run(FilterContext&) override { throw StorageError("boom"); }
  };
  std::atomic<int> total{0};
  FilterGraph graph;
  graph.add_filter("producer", [] { return std::make_unique<Exploder>(); });
  graph.add_filter("consumer",
                   [&] { return std::make_unique<SumConsumer>(total); });
  graph.connect("producer", "out", "consumer", "in");
  EXPECT_THROW(graph.run(), StorageError);
}

TEST(FilterGraph, UnconnectedPortThrows) {
  class PortUser final : public Filter {
   public:
    void run(FilterContext& ctx) override { (void)ctx.input("nope"); }
  };
  FilterGraph graph;
  graph.add_filter("lonely", [] { return std::make_unique<PortUser>(); });
  EXPECT_THROW(graph.run(), UsageError);
}

}  // namespace
}  // namespace mssg
