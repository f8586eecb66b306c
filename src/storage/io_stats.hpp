// Deterministic I/O accounting.  Every disk-touching layer bumps an
// IoStats so experiments can report block/byte counts alongside wall
// time; counts are machine-independent, which makes the paper's "shape"
// claims checkable even when absolute timings differ.
//
// IoStats holds no counts of its own: each field is a handle to one
// counter of a node's MetricsRegistry, bound to its published name in
// the one constructor below.  `++stats_->reads` is therefore one relaxed
// atomic add and no name lookup, safe from the owning thread, concurrent
// query threads and IoEngine workers alike, and the count is readable
// through MetricsRegistry::snapshot() at any moment.  Two IoStats built
// on one registry share every counter.
#pragma once

#include "common/metrics.hpp"

namespace mssg {

struct IoStats {
  explicit IoStats(MetricsRegistry& reg)
      : registry(reg),
        reads(reg.counter("io.reads")),
        writes(reg.counter("io.writes")),
        bytes_read(reg.counter("io.bytes_read")),
        bytes_written(reg.counter("io.bytes_written")),
        syncs(reg.counter("io.syncs")),
        cache_hits(reg.counter("io.cache_hits")),
        cache_misses(reg.counter("io.cache_misses")),
        cache_evictions(reg.counter("io.cache_evictions")),
        cache_pin_leaks(reg.counter("io.cache_pin_leaks")),
        cache_probation_hits(reg.counter("cache.qprobation_hits")),
        cache_protected_hits(reg.counter("cache.qprotected_hits")),
        prefetch_issued(reg.counter("io.prefetch_issued")),
        prefetch_hits(reg.counter("io.prefetch_hits")),
        read_stalls(reg.counter("io.read_stalls")),
        checksum_failures(reg.counter("storage.checksum_failures")),
        checksum_torn(reg.counter("storage.checksum_torn")),
        journal_records(reg.counter("storage.journal_records")),
        journal_replays(reg.counter("storage.journal_replays")),
        edge_log_records(reg.counter("storage.edge_log_records")),
        checkpoints(reg.counter("storage.checkpoints")),
        journal_group_commits(reg.counter("journal.group_commits")),
        journal_deferred_flushes(reg.counter("journal.deferred_flushes")),
        vectored_merges(reg.counter("io.vectored_merges")),
        engine_dropped_errors(reg.counter("io.engine.dropped_errors")),
        txn_snapshot_reads(reg.counter("txn.snapshot_reads")),
        txn_cow_pages(reg.counter("txn.cow_pages")) {}

  MetricsRegistry& registry;  ///< where the handles live (the IoEngine
                              ///< records its histograms here too)
  Counter& reads;             ///< pread calls
  Counter& writes;            ///< pwrite calls
  Counter& bytes_read;
  Counter& bytes_written;
  Counter& syncs;
  Counter& cache_hits;
  Counter& cache_misses;
  Counter& cache_evictions;
  Counter& cache_pin_leaks;  ///< blocks still pinned when their cache was
                             ///< destroyed (leaks)
  Counter& cache_probation_hits;  ///< 2Q: hits on first-touch (probation)
                                  ///< blocks
  Counter& cache_protected_hits;  ///< 2Q: hits on re-referenced (protected)
                                  ///< blocks
  Counter& prefetch_issued;  ///< blocks submitted for async read-ahead
  Counter& prefetch_hits;    ///< get() misses avoided by a prefetch
  Counter& read_stalls;  ///< get() calls that had to read the block
                         ///< synchronously (blocking I/O on the caller's
                         ///< critical path)
  Counter& checksum_failures;  ///< pages whose CRC trailer / sidecar CRC
                               ///< failed
  Counter& checksum_torn;      ///< the subset attributed to a torn write
                               ///< (vs bit rot)
  Counter& journal_records;    ///< undo/redo records appended
  Counter& journal_replays;    ///< records applied in recovery
  Counter& edge_log_records;   ///< edge-log records appended (one per
                               ///< log commit)
  Counter& checkpoints;        ///< checkpoints completed (grDB)
  Counter& journal_group_commits;  ///< redo commit records written (each
                                   ///< retires a whole group of flushes)
  Counter& journal_deferred_flushes;  ///< flushes whose fsyncs were
                                      ///< deferred to a group-commit
                                      ///< boundary
  Counter& vectored_merges;  ///< adjacent requests fused into a
                             ///< preadv/pwritev neighbor (k-request op
                             ///< counts k-1)
  Counter& engine_dropped_errors;  ///< async I/O errors still unpolled when
                                   ///< their IoEngine was destroyed
  Counter& txn_snapshot_reads;  ///< reads served from a pinned epoch (COW
                                ///< version or frozen extent) instead of
                                ///< live state
  Counter& txn_cow_pages;  ///< pre-image versions captured on the first
                           ///< mutation of a page/chunk in an epoch
};

}  // namespace mssg
