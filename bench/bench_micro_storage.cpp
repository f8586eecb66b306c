// A5 — storage-substrate microbenchmarks: B+tree point ops, heap-file
// rows, block-cache hit/miss paths, overflow chains, and the CRC32C
// kernels behind every integrity check.  These calibrate the substrate
// underneath the KVStore/Relational backends and grDB.
#include <benchmark/benchmark.h>

#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "common/temp_dir.hpp"
#include "storage/btree.hpp"
#include "storage/heap_file.hpp"
#include "storage/overflow.hpp"

namespace {

using namespace mssg;

std::vector<std::byte> value_of_size(std::size_t n) {
  return std::vector<std::byte>(n, std::byte{0x5A});
}

void BM_BTreeSequentialPut(benchmark::State& state) {
  TempDir dir;
  Pager pager(dir.path() / "t.db", 4096, 8u << 20);
  BTree tree(pager);
  const auto value = value_of_size(state.range(0));
  std::uint64_t key = 0;
  for (auto _ : state) {
    tree.put({key++, 0}, value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeSequentialPut)->Arg(16)->Arg(256)->Arg(4096);

void BM_BTreeRandomPut(benchmark::State& state) {
  TempDir dir;
  Pager pager(dir.path() / "t.db", 4096, 8u << 20);
  BTree tree(pager);
  const auto value = value_of_size(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    tree.put({rng.below(1u << 20), 0}, value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeRandomPut)->Arg(16)->Arg(256);

void BM_BTreeGet(benchmark::State& state) {
  TempDir dir;
  Pager pager(dir.path() / "t.db", 4096, 8u << 20);
  BTree tree(pager);
  const auto value = value_of_size(64);
  constexpr std::uint64_t kKeys = 100'000;
  for (std::uint64_t k = 0; k < kKeys; ++k) tree.put({k, 0}, value);
  Rng rng(2);
  for (auto _ : state) {
    auto result = tree.get({rng.below(kKeys), 0});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeGet);

void BM_BTreeScan(benchmark::State& state) {
  TempDir dir;
  Pager pager(dir.path() / "t.db", 4096, 8u << 20);
  BTree tree(pager);
  const auto value = value_of_size(64);
  for (std::uint64_t k = 0; k < 50'000; ++k) tree.put({k, 0}, value);
  for (auto _ : state) {
    std::uint64_t visited = 0;
    tree.scan({0, 0}, {50'000, 0},
              [&](const BTreeKey&, std::span<const std::byte>) {
                ++visited;
                return true;
              });
    benchmark::DoNotOptimize(visited);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(visited));
  }
}
BENCHMARK(BM_BTreeScan)->Unit(benchmark::kMillisecond);

void BM_HeapInsert(benchmark::State& state) {
  TempDir dir;
  Pager pager(dir.path() / "h.db", 4096, 8u << 20);
  HeapFile heap(pager);
  const auto row = value_of_size(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(heap.insert(row));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapInsert)->Arg(64)->Arg(512)->Arg(8192);

void BM_HeapRead(benchmark::State& state) {
  TempDir dir;
  Pager pager(dir.path() / "h.db", 4096, 8u << 20);
  HeapFile heap(pager);
  const auto row = value_of_size(256);
  std::vector<RowId> ids;
  for (int i = 0; i < 50'000; ++i) ids.push_back(heap.insert(row));
  Rng rng(3);
  for (auto _ : state) {
    auto data = heap.read(ids[rng.below(ids.size())]);
    benchmark::DoNotOptimize(data);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapRead);

void BM_CacheHit(benchmark::State& state) {
  TempDir dir;
  MetricsRegistry metrics;
  IoStats stats(metrics);
  File file = File::open(dir.path() / "c.bin", &stats);
  BlockCache cache(1u << 20, &stats);
  const auto store = cache.register_store(
      4096,
      [&](std::uint64_t block, std::span<std::byte> out) {
        file.read_at(block * 4096, out);
      },
      [&](std::uint64_t block, std::span<const std::byte> in) {
        file.write_at(block * 4096, in);
      });
  { auto h = cache.get(store, 0); }
  for (auto _ : state) {
    auto h = cache.get(store, 0);
    benchmark::DoNotOptimize(h.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHit);

void BM_CacheMissEvict(benchmark::State& state) {
  TempDir dir;
  MetricsRegistry metrics;
  IoStats stats(metrics);
  File file = File::open(dir.path() / "c.bin", &stats);
  BlockCache cache(4096, &stats);  // one resident block: every get evicts
  const auto store = cache.register_store(
      4096,
      [&](std::uint64_t block, std::span<std::byte> out) {
        file.read_at(block * 4096, out);
      },
      [&](std::uint64_t block, std::span<const std::byte> in) {
        file.write_at(block * 4096, in);
      });
  std::uint64_t block = 0;
  for (auto _ : state) {
    auto h = cache.get(store, block++ % 64);
    h.mutable_data()[0] = std::byte{1};
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheMissEvict);

void BM_OverflowRoundTrip(benchmark::State& state) {
  TempDir dir;
  Pager pager(dir.path() / "o.db", 4096, 8u << 20);
  const auto value = value_of_size(state.range(0));
  for (auto _ : state) {
    const PageId head = overflow::write_chain(pager, value);
    auto back = overflow::read_chain(pager, head, value.size());
    benchmark::DoNotOptimize(back);
    overflow::free_chain(pager, head);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(value.size()));
}
BENCHMARK(BM_OverflowRoundTrip)->Arg(8192)->Arg(65536);

// One checksum over a block of grDB's sizes (4, 32 and 256 KB), as the
// sidecar verify on a cache miss computes it.  "dispatched" is what every
// integrity check calls; "table" is the byte-at-a-time fallback it runs on
// a CPU without SSE4.2.  The label says whether this CPU has SSE4.2, and
// so which kernel "dispatched" runs.
void BM_Crc32c(benchmark::State& state,
               std::uint32_t (*kernel)(std::span<const std::byte>,
                                       std::uint32_t)) {
  Rng rng(3);
  std::vector<std::byte> block(static_cast<std::size_t>(state.range(0)));
  for (auto& b : block) b = static_cast<std::byte>(rng());
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = kernel(block, crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
#if defined(__x86_64__)
  state.SetLabel(__builtin_cpu_supports("sse4.2") ? "cpu:sse4.2"
                                                  : "cpu:no-sse4.2");
#endif
}
BENCHMARK_CAPTURE(BM_Crc32c, dispatched, &crc32c)
    ->Arg(4096)->Arg(32768)->Arg(262144);
BENCHMARK_CAPTURE(BM_Crc32c, table, &crc32c_table)
    ->Arg(4096)->Arg(32768)->Arg(262144);

}  // namespace

BENCHMARK_MAIN();
