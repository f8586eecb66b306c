#include "serve/session.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "common/serial.hpp"

namespace mssg::serve {

namespace {

/// One point-lookup scheduler job: every rank reads the local adjacency
/// of the frontier vertices (optionally metadata-filtered), allgathers
/// the sorted distinct targets, and rank 0 returns the global merge.
/// Reading LOCAL adjacency everywhere and merging makes the lookup
/// correct under every declustering policy — edge-granularity placement
/// spreads one vertex's list across ranks and the merge reassembles it.
std::vector<double> lookup_level(Communicator& comm, QueryContext& ctx,
                                 GraphDB& db,
                                 const std::vector<VertexId>& frontier,
                                 const WhereClause& where) {
  std::vector<VertexId> local;
  std::vector<VertexId> adjacency;
  bool out_of_tokens = false;
  for (const VertexId v : frontier) {
    if (ctx.budget != nullptr && ctx.budget->exhausted()) {
      out_of_tokens = true;
      break;
    }
    adjacency.clear();
    if (where.present) {
      db.get_adjacency_using_metadata(v, adjacency, where.value, where.op);
    } else {
      db.get_adjacency(v, adjacency);
    }
    if (ctx.budget != nullptr) ctx.budget->charge(adjacency.size());
    local.insert(local.end(), adjacency.begin(), adjacency.end());
  }
  // Tokens ran out with frontier vertices unread: that is real
  // truncation.  An exact-fit budget drains on the last vertex and
  // leaves the flag unset.
  if (out_of_tokens && ctx.budget != nullptr) ctx.budget->note_truncation();
  if (ctx.metrics != nullptr) {
    ctx.metrics->counter("lookup.vertices") += frontier.size();
    ctx.metrics->counter("lookup.entries") += local.size();
  }
  std::sort(local.begin(), local.end());
  local.erase(std::unique(local.begin(), local.end()), local.end());
  ByteWriter writer;
  writer.put_vector(local);
  const std::vector<PayloadBuffer> slots =
      comm.allgather(PayloadBuffer(writer.take()));
  if (comm.rank() != 0) return {};
  std::vector<VertexId> merged;
  for (const PayloadBuffer& slot : slots) {
    ByteReader reader(slot.span());
    const std::vector<VertexId> part = reader.get_vector<VertexId>();
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  std::vector<double> out;
  out.reserve(merged.size());
  for (const VertexId v : merged) out.push_back(static_cast<double>(v));
  return out;
}

}  // namespace

ServeSession::ServeSession(MssgCluster& cluster, ServeConfig config)
    : cluster_(cluster), config_(std::move(config)) {}

ServeResult ServeSession::execute(std::string_view text) {
  const PlanResult compiled = compile_query(text);
  if (!compiled.ok()) {
    ServeResult result;
    result.parse_error = true;
    result.error = compiled.error.to_string();
    result.error_position = compiled.error.position;
    serve_.counter("serve.parse_errors") += 1;
    return result;
  }
  return run_plan(*compiled.plan);
}

ServeResult ServeSession::run_plan(const Plan& plan) {
  ServeResult result;
  result.query_class = plan.query_class;
  const SubmitOptions options = options_for(plan);
  if (plan.steps.empty()) {
    run_lookup_plan(plan, options, result);
  } else {
    run_analysis_plan(plan, options, result);
  }
  record(result);
  return result;
}

void ServeSession::run_lookup_plan(const Plan& plan,
                                   const SubmitOptions& options,
                                   ServeResult& result) {
  const Statement& stmt = plan.statement;
  const VertexId source = stmt.vertices.at(0);
  const std::uint64_t depth =
      stmt.kind == Statement::Kind::kGet ? 1 : stmt.depth;
  std::vector<VertexId> frontier{source};
  std::set<VertexId> visited;  // NEIGHBORS accumulator (source excluded)
  for (std::uint64_t level = 0; level < depth && !frontier.empty(); ++level) {
    const QueryScheduler::Ticket ticket = cluster_.submit_job(
        [frontier, where = stmt.where](Communicator& comm, QueryContext& ctx,
                                       GraphDB& db) {
          return lookup_level(comm, ctx, db, frontier, where);
        },
        options);
    const QueryOutcome outcome = cluster_.await_query(ticket);
    absorb(result, outcome, ticket.id());
    if (!outcome.ok()) return;
    if (stmt.kind == Statement::Kind::kGet) {
      // GET renders the raw distinct neighbor list (a self-loop keeps
      // the vertex itself in its own answer).
      result.values = outcome.result;
      return;
    }
    frontier.clear();
    for (const double d : outcome.result) {
      const auto u = static_cast<VertexId>(d);
      if (u == source) continue;
      if (visited.insert(u).second) frontier.push_back(u);
    }
    // A budget-truncated level read only part of its frontier; expanding
    // further would present the partial set as the full answer.
    if (outcome.truncated) break;
  }
  result.values.assign(visited.begin(), visited.end());
}

void ServeSession::run_analysis_plan(const Plan& plan,
                                     const SubmitOptions& options,
                                     ServeResult& result) {
  const Statement& stmt = plan.statement;
  // PATH legs are independent concurrent searches: submit the whole fan
  // before the first await, then reap every ticket (even after an
  // error — each outcome still owes its accounting).
  std::vector<QueryScheduler::Ticket> tickets;
  tickets.reserve(plan.steps.size());
  for (const AnalysisStep& step : plan.steps) {
    tickets.push_back(cluster_.submit_analysis(step.analysis, step.params,
                                               options));
  }
  std::vector<QueryOutcome> outcomes;
  outcomes.reserve(tickets.size());
  for (const QueryScheduler::Ticket& ticket : tickets) {
    outcomes.push_back(cluster_.await_query(ticket));
    absorb(result, outcomes.back(), ticket.id());
  }
  if (!result.error.empty()) return;
  if (stmt.kind == Statement::Kind::kPath) {
    // Per-leg distance with the MAXLEN bound applied (-1 = leg
    // unreachable or over the bound), then the total (-1 if any leg is).
    double total = 0;
    bool broken = false;
    for (const QueryOutcome& outcome : outcomes) {
      const double distance = outcome.result.at(0);
      const bool reached =
          distance != static_cast<double>(kUnvisited) &&
          (stmt.maxlen == 0 || distance <= static_cast<double>(stmt.maxlen));
      result.values.push_back(reached ? distance : -1.0);
      if (reached) {
        total += distance;
      } else {
        broken = true;
      }
    }
    result.values.push_back(broken ? -1.0 : total);
    return;
  }
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    const std::vector<double>& raw = outcomes[i].result;
    const std::size_t keep =
        raw.size() > plan.steps[i].drop_trailing
            ? raw.size() - plan.steps[i].drop_trailing
            : 0;
    result.values.insert(result.values.end(), raw.begin(),
                         raw.begin() + static_cast<std::ptrdiff_t>(keep));
  }
}

const ClassPolicy& ServeSession::policy(QueryClass c) const {
  switch (c) {
    case QueryClass::kPoint: return config_.point;
    case QueryClass::kTraversal: return config_.traversal;
    case QueryClass::kScan: return config_.scan;
  }
  return config_.scan;
}

SubmitOptions ServeSession::options_for(const Plan& plan) const {
  SubmitOptions options;
  options.token_budget = config_.token_budget;
  if (!config_.fifo) {
    const ClassPolicy& p = policy(plan.query_class);
    options.priority = p.priority;
    options.deadline_seconds = p.deadline_seconds;
  }
  return options;
}

void ServeSession::absorb(ServeResult& result, const QueryOutcome& outcome,
                          std::uint64_t query_id) {
  result.jobs += 1;
  result.query_ids.push_back(query_id);
  result.queue_seconds += outcome.queue_seconds;
  result.run_seconds += outcome.seconds;
  result.tokens_spent += outcome.tokens_spent;
  result.expired = result.expired || outcome.expired;
  result.deadline_missed = result.deadline_missed || outcome.deadline_missed;
  result.truncated = result.truncated || outcome.truncated;
  if (!outcome.ok() && result.error.empty()) result.error = outcome.error;
}

void ServeSession::record(const ServeResult& result) {
  const std::string prefix =
      std::string("serve.") + to_string(result.query_class);
  serve_.counter(prefix + ".queries") += 1;
  if (!result.ok()) serve_.counter(prefix + ".errors") += 1;
  if (result.expired) serve_.counter(prefix + ".expired") += 1;
  if (result.deadline_missed) serve_.counter(prefix + ".deadline_miss") += 1;
  serve_.counter(prefix + ".jobs") += result.jobs;
  serve_.histogram(prefix + ".queue_us")
      .record(static_cast<std::uint64_t>(result.queue_seconds * 1e6));
  serve_.histogram(prefix + ".run_us")
      .record(static_cast<std::uint64_t>(result.run_seconds * 1e6));
}

MetricsSnapshot ServeSession::metrics_snapshot() const {
  return serve_.snapshot();
}

}  // namespace mssg::serve
