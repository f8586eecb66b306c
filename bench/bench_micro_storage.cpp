// A5 — storage-substrate microbenchmarks: B+tree point ops, heap-file
// rows, block-cache hit/miss paths, overflow chains, the CRC32C kernels
// behind every integrity check, and the id sorts and vertex codec on the
// traversal's wire path.  These calibrate the substrate underneath the
// KVStore/Relational backends and grDB.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "common/crc32c.hpp"
#include "common/radix_sort.hpp"
#include "common/rng.hpp"
#include "common/temp_dir.hpp"
#include "common/vertex_codec.hpp"
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

// The id sorts of the traversal's wire path: a fringe bucket (ids) and a
// pair set (the ingest shuffle's (src, dst), MS-BFS's (vertex, mask)),
// drawn below 60,000, the perfbench graph's id space.  The encoders sort
// their argument in place, so one iteration is a copy of the input plus
// the sort, on both sides.
constexpr VertexId kSortIdSpace = 60'000;

std::vector<VertexId> random_ids(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexId> ids(n);
  for (auto& v : ids) v = rng.below(kSortIdSpace);
  return ids;
}

VertexId identity(VertexId v) { return v; }

void BM_SortIds(benchmark::State& state, bool radix) {
  const std::vector<VertexId> input =
      random_ids(static_cast<std::size_t>(state.range(0)), 4);
  std::vector<VertexId> work;
  for (auto _ : state) {
    work = input;
    if (radix) {
      radix_sort(work, identity);
    } else {
      std::sort(work.begin(), work.end());
    }
    benchmark::DoNotOptimize(work.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_SortIds, std, false)
    ->Arg(1000)->Arg(40'000)->Arg(200'000)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SortIds, radix, true)
    ->Arg(1000)->Arg(40'000)->Arg(200'000)->Unit(benchmark::kMicrosecond);

void BM_SortPairs(benchmark::State& state, bool radix) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<VertexId> firsts = random_ids(n, 5);
  const std::vector<VertexId> seconds = random_ids(n, 6);
  std::vector<VertexPair> input(n);
  for (std::size_t i = 0; i < n; ++i) input[i] = {firsts[i], seconds[i]};
  std::vector<VertexPair> work;
  for (auto _ : state) {
    work = input;
    if (radix) {
      // encode_pair_set's order: by second, then stably by first.
      radix_sort(work, [](const VertexPair& p) { return p.second; });
      radix_sort(work, [](const VertexPair& p) { return p.first; });
    } else {
      std::sort(work.begin(), work.end());
    }
    benchmark::DoNotOptimize(work.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_SortPairs, std, false)
    ->Arg(1000)->Arg(40'000)->Arg(200'000)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SortPairs, radix, true)
    ->Arg(1000)->Arg(40'000)->Arg(200'000)->Unit(benchmark::kMicrosecond);

// Where kRadixSortCutoff comes from: the radix passes alone against the
// stable comparison sort radix_sort falls back to, on small id sets.
void BM_SortCutoff(benchmark::State& state, bool radix) {
  const std::vector<VertexId> input =
      random_ids(static_cast<std::size_t>(state.range(0)), 7);
  std::vector<VertexId> work;
  for (auto _ : state) {
    work = input;
    if (radix) {
      detail::lsd_radix_sort(work, identity);
    } else {
      std::stable_sort(work.begin(), work.end());
    }
    benchmark::DoNotOptimize(work.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_SortCutoff, stable, false)
    ->RangeMultiplier(2)->Range(32, 1024);
BENCHMARK_CAPTURE(BM_SortCutoff, radix, true)
    ->RangeMultiplier(2)->Range(32, 1024);

// One BFS fringe bucket on the wire: 40k ids owned by one of four ranks
// (v mod 4 == 1), unsorted, delta-encoded as pack_fringe sends it (the
// copy the encoder sorts is timed too) and decoded as the owner reads
// it.  The label gives the encoded bytes per id.
std::vector<VertexId> fringe_bucket() {
  std::vector<VertexId> ids = random_ids(40'000, 8);
  for (auto& v : ids) v = 4 * v + 1;
  return ids;
}

void BM_VertexCodecEncode(benchmark::State& state) {
  const std::vector<VertexId> input = fringe_bucket();
  std::vector<VertexId> work;
  std::size_t bytes = 0;
  for (auto _ : state) {
    work = input;
    const std::vector<std::byte> wire = encode_vertex_set(work);
    bytes = wire.size();
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(input.size()));
  state.SetLabel("bytes_per_id:" +
                 std::to_string(static_cast<double>(bytes) / input.size()));
}
BENCHMARK(BM_VertexCodecEncode)->Unit(benchmark::kMicrosecond);

void BM_VertexCodecDecode(benchmark::State& state) {
  std::vector<VertexId> input = fringe_bucket();
  const std::vector<std::byte> wire = encode_vertex_set(input);
  std::vector<VertexId> out;
  for (auto _ : state) {
    decode_vertex_set(wire, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_VertexCodecDecode)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
