// The Query service (§3.3): a registry of data-analysis techniques.
// "All implemented data analysis techniques are registered with the
// system and can be queried by the user."  An analysis runs SPMD on
// every back-end node against the local GraphDB, communicating through
// the node's Communicator, under a per-query QueryContext (budget,
// rank-private metrics, cache attribution, and the cluster's derived
// owner-map flag).
//
// One table, one signature: MssgCluster::run_analysis and
// MssgCluster::submit_analysis both run an entry through run().  Each
// entry says whether it must be admitted exclusively, which is true
// only when it writes the GraphDB metadata (visited) store — the
// paper's Algorithms 1 and 2 (`bfs`, `pipelined-bfs`).  Every other
// built-in keeps its state query-private and shares the cluster.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "graphdb/graphdb.hpp"
#include "query/query_scheduler.hpp"
#include "runtime/comm.hpp"

namespace mssg {

/// Analysis signature: (comm, local db, parameters, per-query context)
/// -> per-rank result encoded as doubles (analyses define their own
/// layout, documented at each registration).
using AnalysisFn = std::function<std::vector<double>(
    Communicator&, GraphDB&, const std::vector<std::uint64_t>& params,
    QueryContext& ctx)>;

class QueryService {
 public:
  struct Analysis {
    AnalysisFn fn;
    /// Writes shared per-node state (the metadata store): the scheduler
    /// admits it alone.
    bool exclusive = false;
  };

  /// Registers the built-in analyses.
  QueryService();

  /// Adds or replaces an analysis.
  void register_analysis(const std::string& name, AnalysisFn fn,
                         bool exclusive = false);

  [[nodiscard]] bool has(const std::string& name) const {
    return analyses_.contains(name);
  }

  /// The registered entry, or nullptr for an unknown name.
  [[nodiscard]] const Analysis* find(const std::string& name) const;

  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Runs a registered analysis on this rank; throws UsageError for an
  /// unknown name.  Collective across the communicator's ranks.
  std::vector<double> run(const std::string& name, Communicator& comm,
                          GraphDB& db,
                          const std::vector<std::uint64_t>& params,
                          QueryContext& ctx) const;

 private:
  std::map<std::string, Analysis> analyses_;
};

}  // namespace mssg
