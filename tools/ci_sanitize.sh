#!/usr/bin/env bash
# Sanitizer CI: builds the tsan and asan-ubsan presets and runs the
# concurrency-heavy test suites (runtime, BFS, stress) plus the metrics
# and block-cache suites under each.  Any report is fatal
# (halt_on_error / -fno-sanitize-recover=all).
#
# Usage: tools/ci_sanitize.sh [tsan|asan-ubsan]   (default: both)
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"
JOBS="${JOBS:-$(nproc)}"

# The suites that exercise cross-thread behavior: the simulated-cluster
# runtime, the SPMD searches, the ingestion pipeline, and the stress
# suite — plus the metrics layer and BlockCache regressions this CI
# exists to guard.
FILTER='Mailbox.*:Comm.*:CommStress.*:Stream.*:StreamBackpressure.*'
FILTER+=':FilterGraph.*:*ParallelBfs*:PipelinedExtreme.*:FileIngestion.*'
FILTER+=':GrdbTorture.*:BlockCache.*:Metrics*.*'
# PR 2: the async I/O engine is the one place a second thread touches
# storage — every engine/cache/prefetch suite runs under both sanitizers.
FILTER+=':IoEngine.*:AsyncIo.*:PagerFreeList.*:*BfsAsyncEquivalence*'
# PR 3: shared zero-copy payload buffers cross threads by design, and the
# mailbox wakeup protocol uses per-waiter condition variables — the codec
# and wire-equivalence suites must stay clean under both sanitizers.
FILTER+=':PayloadBuffer.*:VertexCodec.*:BfsWireEquivalence.*'
# PR 5: crash-safety — the kill-point sweeps and torn-write fuzz (the
# crash label, run via ctest under BOTH presets below) throw through the
# eviction write-back and flush paths; strided so a sanitizer run stays
# bounded (a stride-7 sweep still crosses every phase of the flush
# protocol).
# PR 6: the concurrent query engine — scheduler admission, the shared 2Q
# cache under eight query threads, MS-BFS equivalence, and the
# cross-backend differential harness.  (These are also the `ctest -L
# concurrency` label, run below under tsan via ctest so label coverage
# and filter coverage cannot drift apart.)
FILTER+=':ConcurrencyStress.*:MsBfsEquivalence.*:*Differential.*:BlockCache2Q.*'
# The one-worker read-ahead engine — its worker shares the queue, the
# completion list and the quiescence predicates with every submitter and
# poller, and counts into the registry it is given; the stress suite
# races submit/poll/wait/drain from several threads while a reader
# snapshots that registry live.  The full io label (engine + read-ahead
# cache + pager hardening + BFS async/sync equivalence) also runs via
# ctest under BOTH presets below.
FILTER+=':IoEngineStress.*'
# PR 8: the VertexProgram engine — every analysis runs one kernel thread
# per simulated rank, all charging one shared QueryBudget and merging
# into per-query registries; the scheduler mix runs six analyses at once
# over the shared cache.  The full analytics label (these suites plus the
# A14 mixed-workload smoke) also runs via ctest under BOTH presets below.
FILTER+=':VertexProgramEngine.*:*UnitSsspHopEquivalence*:CcDeterminism.*'
FILTER+=':AnalyticsReference.*:*AnalyticsScheduler*'
# PR 10: epoch-based snapshot isolation — reader threads pin epochs and
# walk COW pre-images while the ingest path captures versions, advances
# epochs and retires them; the stress suites race 8 readers against a
# live writer and the interleaved differential harness replays
# store/flush/pin/release schedules on every backend.  (Note the PR 6
# `*Differential.*` pattern does NOT match `DifferentialTxn.*` — the
# literal dot sits after "Differential", so the new suite is listed
# explicitly.)  The full txn label also runs via ctest under BOTH
# presets below.
FILTER+=':EpochMechanics.*:*SnapshotCow*:*SnapshotStress*'
FILTER+=':*DifferentialTxn*'
# PR 11: the serving front-end — the parser fuzz wall hammers the
# lexer's byte handling (mutated non-UTF8 input is exactly where a
# one-past-the-end read hides, asan territory), the SLO scheduler
# invariants race queued waiters against priority overtake and
# deadline-expiry wakeups (tsan territory), and the live-ingest
# differential runs session reads against a concurrent writer.  The
# full serve label (these suites plus the A17 loadgen smoke) also runs
# via ctest under BOTH presets below.
FILTER+=':QueryLangParse.*:QueryLangFuzz.*:*QueryLangDifferential*'
FILTER+=':ServeDecluster.*:ServeScheduler.*:ServeAccounting.*:ServeLiveIngest.*'
# Run-time CRC32C dispatch and corrupt grDB chains: the crc32 kernel is
# compiled with a target attribute outside the build's own flags, so both
# sanitizers see its word loads and tail bytes; the corrupt-chain cases
# plant out-of-geometry levels, 48-bit block overflows and pointer cycles,
# so an unchecked level index that comes back is an asan finding, not a
# silent read past the geometry.
FILTER+=':Crc32c.*:GrdbCorruptChain.*'
# The batched adjacency read on every backend: grDB's staged walk pins one
# block per stage and re-points a ref across its sub-blocks, so an offset
# past the frame is an asan finding.
FILTER+=':*GraphDBContract*'
# The edge log and grDB's commit/checkpoint split: the log's framing and
# replay bounds (asan: a count that sized a read past the record), the
# log-commit/checkpoint and corrupt-journal suites (a journal record's
# block index reaching ensure_file), and the rest of grDB's unit suite.
# The fuzz label (EdgeLogFuzz.* and GrdbMetaFuzz.*, the edge-log and
# grdb.meta mutation suites) runs via ctest under asan-ubsan below.
FILTER+=':EdgeLog.*:GrdbEdgeLog.*:GrdbCorruptJournal.*:Grdb.*'
# The radix sort behind the codec, grDB's staged walk and MS-BFS's
# frontier: its scatter indexes a scratch vector by prefix-summed digit
# counts (asan: an offset past the end), and the ingest pipeline's
# bounded back-end batch drains the stream from filter threads (tsan).
FILTER+=':RadixSort.*:Ingestion.*'
export MSSG_CRASH_SWEEP_STRIDE="${MSSG_CRASH_SWEEP_STRIDE:-7}"

run_preset() {
  local preset="$1" build_dir="$2"
  echo "=== [$preset] configure + build ==="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$JOBS"
  # One sanitizer environment for every run below; each runtime reads
  # only its own variable.
  export TSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/tsan.supp halt_on_error=1 second_deadlock_stack=1"
  export ASAN_OPTIONS="detect_stack_use_after_return=1 strict_string_checks=1"
  export LSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/asan.supp"
  export UBSAN_OPTIONS="print_stacktrace=1"
  echo "=== [$preset] running filtered suites ==="
  "$build_dir/tests/mssg_tests" --gtest_filter="$FILTER" --gtest_brief=1
  if [ "$preset" = tsan ]; then
    echo "=== [$preset] ctest -L concurrency ==="
    ctest --test-dir "$build_dir" -L concurrency --output-on-failure
  fi
  # These labels run under BOTH presets:
  #  - io (read-ahead engine, the cache with an engine attached, the A13
  #    smoke): tsan for the worker's queue and completion handoffs, asan
  #    for the iovec arithmetic in the vectored read path.
  #  - crash (kill-point sweeps, torn-write fuzz, fault injection): the
  #    injected failures unwind through eviction write-back, flush and
  #    journal recovery on the cluster's node threads (tsan), and the
  #    recovery parsers read torn journals (asan).
  #  - analytics (VertexProgram engine suites + the A14 smoke): tsan for
  #    the rank threads racing the shared budget/cache, asan for the
  #    slot/bitset arithmetic in the engine's frontier machinery.
  #  - txn (epoch/COW mechanics, snapshot stress, the interleaved
  #    differential harness, the crash-label epoch sweeps' sibling
  #    suites, the A16 smoke): tsan because snapshot isolation IS a
  #    cross-thread visibility claim — readers on retired pins, the
  #    version-shelf double-check, the in-place frame latch — and asan for
  #    the captured pre-image buffers (a version outliving its block, or
  #    a purge racing a reader, shows up as heap-use-after-free here
  #    first).
  #  - serve (query-language parse/fuzz/differential, the SLO scheduler
  #    invariants, the A17 loadgen smoke): tsan for the admission queue's
  #    waiter set and the open-loop harness's dispatcher/worker threads,
  #    asan-ubsan for the hand-written lexer over hostile bytes (the fuzz
  #    corpus exists to catch exactly the out-of-bounds reads asan sees
  #    first).
  for label in io crash analytics txn serve; do
    echo "=== [$preset] ctest -L $label ==="
    ctest --test-dir "$build_dir" -L "$label" --output-on-failure
  done
  #  - fuzz (GrdbMetaFuzz.* and EdgeLogFuzz.*: seeded mutations of
  #    grdb.meta's and the edge log's bytes, each reopened through grDB):
  #    asan-ubsan, where a read or allocation sized by a mutated field
  #    shows first.
  if [ "$preset" = asan-ubsan ]; then
    echo "=== [$preset] ctest -L fuzz ==="
    ctest --test-dir "$build_dir" -L fuzz --output-on-failure
  fi
  echo "=== [$preset] OK ==="
}

TARGET="${1:-all}"
case "$TARGET" in
  tsan)       run_preset tsan build-tsan ;;
  asan-ubsan) run_preset asan-ubsan build-asan ;;
  all)        run_preset tsan build-tsan
              run_preset asan-ubsan build-asan ;;
  *) echo "usage: $0 [tsan|asan-ubsan]" >&2; exit 2 ;;
esac
