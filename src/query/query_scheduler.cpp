#include "query/query_scheduler.hpp"

#include <exception>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"

namespace mssg {

struct QueryScheduler::Ticket::State {
  State(std::uint64_t query_id, std::uint64_t token_budget)
      : id(query_id), budget(token_budget) {}

  const std::uint64_t id;
  const std::chrono::steady_clock::time_point submitted =
      std::chrono::steady_clock::now();
  QueryBudget budget;
  CacheAttribution attribution;
  MetricsRegistry metrics;  // shared by the query's rank threads
  QueryOutcome outcome;

  std::thread runner;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
};

std::uint64_t QueryScheduler::Ticket::id() const {
  MSSG_CHECK(state_ != nullptr);
  return state_->id;
}

QueryScheduler::QueryScheduler(CommWorld& world, QuerySchedulerConfig config)
    : world_(world), config_(config) {
  MSSG_CHECK(config_.max_inflight >= 1);
}

QueryScheduler::~QueryScheduler() {
  std::vector<std::shared_ptr<Ticket::State>> states;
  {
    std::lock_guard<std::mutex> lock(states_mu_);
    states.swap(states_);
  }
  for (const auto& state : states) await(Ticket(state));
}

QueryScheduler::Ticket QueryScheduler::submit(QueryJob job,
                                              const SubmitOptions& options) {
  // An EXPLICIT zero budget cannot run even one superstep, so it fails
  // admission instead of starting; the config-level 0 means unlimited.
  const bool rejected =
      options.token_budget.has_value() && *options.token_budget == 0;
  const std::uint64_t budget =
      options.token_budget.value_or(config_.token_budget);
  std::shared_ptr<Ticket::State> state;
  {
    std::lock_guard<std::mutex> lock(states_mu_);
    state = std::make_shared<Ticket::State>(next_id_++, budget);
    states_.push_back(state);
  }
  // The admission ticket is drawn HERE, not on the runner thread: within
  // a priority, admission order is exactly submission order, which is
  // what makes the FIFO baseline of the load harness meaningful.
  Waiter waiter;
  if (!rejected) {
    std::lock_guard<std::mutex> lock(admission_mu_);
    waiter = Waiter{options.priority, next_seq_++, options.exclusive};
    waiters_.insert(waiter);
  }
  state->runner = std::thread([this, state, moved_job = std::move(job), options,
                               rejected, waiter]() mutable {
    run_query(state, std::move(moved_job), options, rejected, waiter);
  });
  return Ticket(state);
}

QueryOutcome QueryScheduler::await(const Ticket& ticket) {
  MSSG_CHECK(ticket.valid());
  Ticket::State& state = *ticket.state_;
  std::unique_lock<std::mutex> lock(state.mu);
  state.cv.wait(lock, [&] { return state.done; });
  // First awaiter reaps the runner; the lock serializes concurrent
  // awaits on one ticket.
  if (state.runner.joinable()) state.runner.join();
  return state.outcome;
}

int QueryScheduler::inflight() const {
  std::lock_guard<std::mutex> lock(admission_mu_);
  return running_;
}

bool QueryScheduler::admit(const Waiter& waiter,
                           std::chrono::steady_clock::time_point deadline,
                           bool has_deadline) {
  std::unique_lock<std::mutex> lock(admission_mu_);
  // Head-only admission: the best-priority, earliest-submitted waiter is
  // the only one allowed to take the next slot.  A pending exclusive
  // query at the head therefore gates every later shared submission (a
  // steady shared stream cannot starve it), while a later, HIGHER
  // priority arrival becomes the head itself and overtakes the queue —
  // the serving front-end's point-lookups-before-scans rule.
  const auto eligible = [&] {
    const auto head = waiters_.begin();
    if (head == waiters_.end() || head->seq != waiter.seq) return false;
    if (waiter.exclusive) return running_ == 0;
    return !exclusive_running_ && running_ < config_.max_inflight;
  };
  bool admitted = true;
  if (has_deadline) {
    admitted = admission_cv_.wait_until(lock, deadline, eligible);
  } else {
    admission_cv_.wait(lock, eligible);
  }
  waiters_.erase(waiter);
  if (admitted) {
    if (waiter.exclusive) exclusive_running_ = true;
    ++running_;
  }
  lock.unlock();
  // Either way the queue head may have changed: an admitted shared head
  // can leave slots for the next waiter, and an expired head unblocks
  // whoever sat behind it.
  admission_cv_.notify_all();
  return admitted;
}

void QueryScheduler::release(bool exclusive) {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    if (exclusive) exclusive_running_ = false;
    --running_;
  }
  admission_cv_.notify_all();
}

void QueryScheduler::run_query(const std::shared_ptr<Ticket::State>& state,
                               QueryJob job, const SubmitOptions& options,
                               bool rejected, Waiter waiter) {
  QueryOutcome& out = state->outcome;
  const bool has_deadline = options.deadline_seconds > 0;
  const auto deadline =
      state->submitted + std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double>(
                                 options.deadline_seconds));
  const auto since_submit = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         state->submitted)
        .count();
  };
  if (rejected) {
    out.error = "admission rejected: zero token budget";
  } else if (!admit(waiter, deadline, has_deadline)) {
    // Expired in the admission queue: the query never ran, holds no
    // budget tokens and no cache attribution — only its (empty)
    // registry and the sched.* accounting below.
    out.queue_seconds = since_submit();
    out.expired = true;
    std::ostringstream msg;
    msg << "deadline expired after " << out.queue_seconds
        << " s in the admission queue (deadline " << options.deadline_seconds
        << " s)";
    out.error = msg.str();
  } else {
    out.queue_seconds = since_submit();

    Timer run_timer;
    // Private sub-world per query: mailboxes, barrier, and collective
    // scratch are isolated, traffic still lands in the cluster totals.
    const std::unique_ptr<CommWorld> sub = world_.split(state->id);
    try {
      run_cluster(*sub, [&](Communicator& comm) {
        // Scoped (RAII): released on every rank even when the job
        // throws, so a failed query cannot leak its attribution onto
        // whatever runs on this thread next.
        CacheAttributionScope cache_scope(&state->attribution);
        QueryContext ctx{state->id, &state->budget, &state->metrics,
                         &state->attribution};
        std::vector<double> result = job(comm, ctx);
        if (comm.rank() == 0) out.result = std::move(result);
      });
    } catch (const std::exception& e) {
      out.error = e.what();
    } catch (...) {
      out.error = "unknown query failure";
    }
    out.seconds = run_timer.seconds();
    if (has_deadline && since_submit() > options.deadline_seconds) {
      // Started in time but finished late: a soft miss, not a failure.
      out.deadline_missed = true;
    }
    release(options.exclusive);
  }

  // Shared epilogue — success, mid-run failure, admission rejection and
  // queue expiry all land here, so every submitted query snapshots its
  // registry into the outcome and shows up in the sched.* aggregates; a
  // query that dies half-way keeps the work it already counted.
  //
  // Truncation comes from the budget's explicit flag (set by an analysis
  // that actually cut work short), NOT from exhausted(): a budget of
  // exactly the work remaining completes with spent == limit and must
  // not report truncation.
  out.truncated = state->budget.truncation_noted();
  out.tokens_spent = state->budget.spent();
  out.cache_hits = state->attribution.hits.load(std::memory_order_relaxed);
  out.cache_misses = state->attribution.misses.load(std::memory_order_relaxed);
  out.cache_hit_ratio = state->attribution.hit_ratio();
  out.metrics = state->metrics.snapshot();
  record_completion(*state, rejected);

  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->done = true;
  }
  state->cv.notify_all();
}

void QueryScheduler::record_completion(const Ticket::State& state,
                                       bool rejected) {
  const QueryOutcome& out = state.outcome;
  sched_.counter("sched.queries") += 1;
  if (out.truncated) sched_.counter("sched.truncated") += 1;
  if (!out.ok()) sched_.counter("sched.failed") += 1;
  if (rejected) sched_.counter("sched.rejected") += 1;
  if (out.expired) sched_.counter("sched.expired") += 1;
  if (out.deadline_missed) sched_.counter("sched.deadline_miss") += 1;
  sched_.histogram("sched.queue_wait_us")
      .record(static_cast<std::uint64_t>(out.queue_seconds * 1e6));
  sched_.histogram("sched.query_us")
      .record(static_cast<std::uint64_t>(out.seconds * 1e6));
  if (out.cache_hits + out.cache_misses != 0) {
    sched_.histogram("sched.cache_hit_pct")
        .record(static_cast<std::uint64_t>(out.cache_hit_ratio * 100.0));
  }
  const std::string prefix = "sched.q" + std::to_string(state.id);
  sched_.counter(prefix + ".cache_hits") += out.cache_hits;
  sched_.counter(prefix + ".cache_misses") += out.cache_misses;
  sched_.counter(prefix + ".cache_hit_pct") +=
      static_cast<std::uint64_t>(out.cache_hit_ratio * 100.0);
  sched_.counter(prefix + ".tokens_spent") += state.budget.spent();
  sched_.counter(prefix + ".queue_us") +=
      static_cast<std::uint64_t>(out.queue_seconds * 1e6);
  sched_.merge(out.metrics);
}

MetricsSnapshot QueryScheduler::metrics_snapshot() const {
  return sched_.snapshot();
}

}  // namespace mssg
