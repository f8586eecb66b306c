// ServeSession — executes compiled query plans through the cluster's
// QueryScheduler with per-class SLO scheduling (DESIGN.md "Serving
// front-end").
//
// Each query class carries a (priority, deadline) policy: point lookups
// are admitted ahead of bounded traversals ahead of full-graph scans,
// and a query that cannot start by its class deadline expires in the
// queue instead of running late.  `fifo = true` switches every class to
// the scheduler defaults (priority 0, no deadline) — the baseline leg of
// the A17 load harness.
//
// A plan may fan out into SEVERAL scheduler jobs (one cbfs per PATH leg,
// one point-lookup job per NEIGHBORS depth level); the ServeResult sums
// queue/run time and token spend over all of them and carries the
// query ids, so per-plan accounting can be reconciled against the
// scheduler's sched.q<id>.* rows.  Per-class serve.* metrics aggregate
// across the session.
//
// Thread-safe: the open-loop load harness calls execute() from many
// arrival threads at once.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.hpp"
#include "mssg/mssg.hpp"
#include "serve/query_lang.hpp"

namespace mssg::serve {

/// Scheduling policy for one query class.
struct ClassPolicy {
  int priority = 0;
  double deadline_seconds = 0;  ///< 0 = no deadline
};

struct ServeConfig {
  ClassPolicy point{/*priority=*/2, /*deadline_seconds=*/0.5};
  ClassPolicy traversal{/*priority=*/1, /*deadline_seconds=*/2.0};
  ClassPolicy scan{/*priority=*/0, /*deadline_seconds=*/10.0};
  /// Baseline mode: ignore the class policies entirely (priority 0, no
  /// deadlines — plain submission-order admission).
  bool fifo = false;
  /// Per-query token budget forwarded to every job of every plan
  /// (nullopt = the scheduler config's budget).
  std::optional<std::uint64_t> token_budget;
};

/// Outcome of one query (one plan), aggregated over its scheduler jobs.
struct ServeResult {
  std::vector<double> values;  ///< rendered result (deterministic fields)
  QueryClass query_class = QueryClass::kPoint;
  std::string error;               ///< empty on success
  std::size_t error_position = 0;  ///< byte offset for parse/plan errors
  bool parse_error = false;        ///< error came from parse/plan, not run
  bool expired = false;            ///< some job expired in the queue
  bool deadline_missed = false;    ///< some job finished past its deadline
  bool truncated = false;          ///< some job ran out of token budget
  double queue_seconds = 0;        ///< summed admission wait over jobs
  double run_seconds = 0;          ///< summed execution time over jobs
  std::uint64_t jobs = 0;          ///< scheduler jobs this plan fanned into
  std::uint64_t tokens_spent = 0;  ///< summed over jobs
  std::vector<std::uint64_t> query_ids;  ///< sched.q<id>.* rows of this plan

  [[nodiscard]] bool ok() const { return error.empty(); }
};

class ServeSession {
 public:
  explicit ServeSession(MssgCluster& cluster, ServeConfig config = {});

  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  /// parse -> plan -> run.  Parse failures come back as a ServeResult
  /// with `parse_error` and the structured message/position — execute
  /// never throws on malformed query text.
  ServeResult execute(std::string_view text);

  /// Runs an already-compiled plan.
  ServeResult run_plan(const Plan& plan);

  [[nodiscard]] const ServeConfig& config() const { return config_; }

  /// Per-class serve.* counters and latency histograms
  /// (serve.point.queries, serve.scan.deadline_miss,
  /// serve.traversal.queue_us, serve.parse_errors, ...).
  [[nodiscard]] MetricsSnapshot metrics_snapshot() const;

 private:
  [[nodiscard]] const ClassPolicy& policy(QueryClass c) const;
  [[nodiscard]] SubmitOptions options_for(const Plan& plan) const;
  /// Folds one scheduler job's outcome into the plan result.
  static void absorb(ServeResult& result, const QueryOutcome& outcome,
                     std::uint64_t query_id);
  void run_lookup_plan(const Plan& plan, const SubmitOptions& options,
                       ServeResult& result);
  void run_analysis_plan(const Plan& plan, const SubmitOptions& options,
                         ServeResult& result);
  void record(const ServeResult& result);

  MssgCluster& cluster_;
  const ServeConfig config_;
  MetricsRegistry serve_;
};

}  // namespace mssg::serve
