// Concurrent query execution engine — admission control for N in-flight
// analyses over one simulated cluster.
//
// The paper's Query service registers analyses but executes them one at
// a time; FlashGraph/Graphyti-style semi-external-memory engines win by
// running many traversals concurrently over a shared page cache.  The
// scheduler provides the missing machinery:
//
//  - Admission control: at most `max_inflight` shared queries run at
//    once.  Work that mutates shared per-node state — the GraphDB
//    metadata (visited) store written by Algorithms 1 and 2, the `bfs`
//    and `pipelined-bfs` analyses — submits as *exclusive* and runs
//    alone; pending exclusive queries gate new shared admissions so they
//    cannot starve.
//  - Stream isolation: each admitted query runs on a CommWorld::split()
//    sub-world — private mailboxes, barrier, and collective scratch — so
//    interleaved queries cannot cross message streams.
//  - Per-query token budgets (query/query_budget.hpp): analyses charge
//    work tokens and truncate cooperatively at level boundaries.
//  - Per-query metrics: each query's rank threads count into one shared
//    registry of its own, snapshotted into the query's outcome and
//    merged into the scheduler aggregate on completion.
//  - Per-query cache attribution: the query's rank threads run under a
//    CacheAttributionScope, so the shared 2Q BlockCache splits its
//    hit/miss counts per query ("sched.q<id>.cache_hits", hit ratios).
//  - SLO scheduling (the serving front-end, DESIGN.md "Serving
//    front-end"): admission is ordered by (priority desc, submission
//    order asc) — a waiting point lookup with a higher priority is
//    admitted ahead of earlier-submitted full-graph scans — and a query
//    may carry a deadline: if it is not admitted by its deadline it
//    EXPIRES (fails with a structured error, never runs, still lands in
//    the sched.* aggregates), and if it finishes after its deadline the
//    completion is counted as a deadline miss.  Every priority defaults
//    to 0 and deadlines default to off, so callers that never heard of
//    SLOs get plain FIFO — the pre-serving behavior.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "query/query_budget.hpp"
#include "runtime/comm.hpp"
#include "storage/block_cache.hpp"

namespace mssg {

struct QuerySchedulerConfig {
  /// Maximum concurrently running shared (concurrent-safe) queries.
  int max_inflight = 4;
  /// Per-query token budget (tokens = adjacency entries scanned);
  /// 0 = unlimited.
  std::uint64_t token_budget = 0;
};

/// Hands an admitted analysis its per-query resources, all shared by the
/// query's ranks: `metrics` is the query's own registry.
struct QueryContext {
  std::uint64_t query_id = 0;
  QueryBudget* budget = nullptr;
  MetricsRegistry* metrics = nullptr;
  CacheAttribution* attribution = nullptr;
  /// owner(v) = v mod p holds on every rank (hash-mod declustering).
  /// Derived by MssgCluster from its partitioner, never set by a user:
  /// when false, traversals broadcast their fringes and analyses that
  /// need the owner map refuse to run.
  bool map_known = true;
};

/// A collective analysis body: invoked once per rank on the query's
/// private sub-world.  Rank 0's return vector becomes the outcome.
using QueryJob =
    std::function<std::vector<double>(Communicator& comm, QueryContext& ctx)>;

struct QueryOutcome {
  std::vector<double> result;  ///< rank 0's analysis result
  bool truncated = false;      ///< token budget ran out
  bool expired = false;        ///< missed its deadline in the admission queue
  bool deadline_missed = false;  ///< ran, but finished after its deadline
  std::uint64_t cache_hits = 0;    ///< shared-cache hits attributed here
  std::uint64_t cache_misses = 0;
  double cache_hit_ratio = 0.0;
  double queue_seconds = 0.0;  ///< time waiting for admission
  double seconds = 0.0;        ///< execution wall time
  std::uint64_t tokens_spent = 0;  ///< budget tokens charged by the query
  std::string error;           ///< empty on success
  MetricsSnapshot metrics;     ///< the query's registry, all ranks

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Per-submission scheduling knobs.  The defaults reproduce the
/// pre-serving behavior exactly: priority 0, no deadline, the config's
/// token budget.
struct SubmitOptions {
  /// Exclusive queries mutate shared per-node state and run alone.
  /// MssgCluster::submit_analysis overwrites this from the registry.
  bool exclusive = false;
  /// Admission order is (priority desc, submission order asc); higher
  /// runs sooner.  The serving front-end maps point lookups above
  /// traversals above full-graph scans.
  int priority = 0;
  /// Seconds from submission the query must START by; 0 = none.  A query
  /// still waiting in the admission queue at its deadline expires: it
  /// never runs, its outcome carries `expired` plus an error, and it is
  /// counted in sched.expired.  A query that starts in time but finishes
  /// late completes normally with `deadline_missed` set (sched.deadline_miss).
  double deadline_seconds = 0;
  /// Per-query token budget override (see submit()); nullopt = config.
  std::optional<std::uint64_t> token_budget;
};

class QueryScheduler {
 public:
  /// `world` is the cluster's root CommWorld: each query gets a split()
  /// of it, so query traffic still lands in the cluster's comm.* totals.
  explicit QueryScheduler(CommWorld& world, QuerySchedulerConfig config = {});

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// Awaits every in-flight query.
  ~QueryScheduler();

  class Ticket {
   public:
    Ticket() = default;
    [[nodiscard]] std::uint64_t id() const;
    [[nodiscard]] bool valid() const { return state_ != nullptr; }

   private:
    friend class QueryScheduler;
    struct State;
    explicit Ticket(std::shared_ptr<State> state) : state_(std::move(state)) {}
    std::shared_ptr<State> state_;
  };

  /// Enqueues a query.  Returns immediately; the query runs on its own
  /// runner thread once admitted.  `exclusive` marks work that writes
  /// shared per-node state (the GraphDB metadata store) and must run
  /// alone; everything else submits shared.
  ///
  /// `token_budget` overrides the config's per-query budget for this
  /// query only.  An explicit budget of 0 FAILS ADMISSION cleanly: the
  /// query never runs a superstep, its outcome carries an error, and its
  /// (empty) registry and sched.q<id>.* rows are still recorded so the
  /// scheduler aggregates balance.  (The config-level 0 keeps its
  /// documented "unlimited" meaning.)
  Ticket submit(QueryJob job, bool exclusive = false,
                std::optional<std::uint64_t> token_budget = std::nullopt) {
    SubmitOptions options;
    options.exclusive = exclusive;
    options.token_budget = token_budget;
    return submit(std::move(job), options);
  }

  /// Full-control submission: priority ordering and deadlines on top of
  /// the exclusive/budget knobs (see SubmitOptions).
  Ticket submit(QueryJob job, const SubmitOptions& options);

  /// Blocks until the query finishes and returns its outcome.  Safe to
  /// call more than once per ticket.
  QueryOutcome await(const Ticket& ticket);

  /// submit + await, for callers without interleaving needs.
  QueryOutcome run(QueryJob job, bool exclusive = false,
                   std::optional<std::uint64_t> token_budget = std::nullopt) {
    return await(submit(std::move(job), exclusive, token_budget));
  }

  /// Queries currently admitted (diagnostics; racy by nature).
  [[nodiscard]] int inflight() const;

  [[nodiscard]] const QuerySchedulerConfig& config() const { return config_; }

  /// Scheduler aggregate: sched.* counters/histograms (queries, queue
  /// wait, per-query cache attribution) plus every completed query's
  /// analysis metrics.  Safe at any moment; a query's metrics appear
  /// once it completes.
  [[nodiscard]] MetricsSnapshot metrics_snapshot() const;

 private:
  /// One queued-for-admission query.  Entries are created at submit()
  /// time under the admission lock, so the FIFO order within a priority
  /// is exactly the submission order, not the racy order in which the
  /// runner threads happen to start waiting.
  struct Waiter {
    int priority = 0;
    std::uint64_t seq = 0;  ///< admission ticket, unique, monotonic
    bool exclusive = false;
  };
  struct WaiterOrder {
    bool operator()(const Waiter& a, const Waiter& b) const {
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq < b.seq;
    }
  };

  void run_query(const std::shared_ptr<Ticket::State>& state, QueryJob job,
                 const SubmitOptions& options, bool rejected, Waiter waiter);
  /// Blocks until this waiter is the admission head and a slot fits, or
  /// its deadline passes.  Returns false on expiry (waiter removed).
  bool admit(const Waiter& waiter,
             std::chrono::steady_clock::time_point deadline, bool has_deadline);
  void release(bool exclusive);
  void record_completion(const Ticket::State& state, bool rejected);

  CommWorld& world_;
  QuerySchedulerConfig config_;

  // Admission state.  Waiting queries sit in `waiters_` ordered by
  // (priority desc, seq asc); only the head may take the next slot, so
  // equal priorities admit strictly FIFO and a pending exclusive query
  // at the head gates later shared submissions (anti-starvation), while
  // a higher-priority arrival overtakes the whole queue.
  mutable std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  int running_ = 0;
  bool exclusive_running_ = false;
  std::uint64_t next_seq_ = 1;
  std::set<Waiter, WaiterOrder> waiters_;

  // Completed-query accounting.
  MetricsRegistry sched_;

  // Every submitted query, for the destructor's final join.
  std::mutex states_mu_;
  std::uint64_t next_id_ = 1;
  std::vector<std::shared_ptr<Ticket::State>> states_;
};

}  // namespace mssg
