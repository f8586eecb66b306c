// The serving front-end's graph query language (ROADMAP item 5).
//
// A small hand-written lexer/parser/planner: queries compile to plans
// that compose the existing QueryService analyses and scheduler point
// lookups — the language adds NO new execution machinery, so every form
// is differential-testable against the API it compiles to
// (tests/query_lang_test.cpp).
//
// Grammar (keywords case-insensitive, vertices/numbers decimal u64):
//
//   query     := get | path | neighbors | rank | cc | count | stats
//   get       := GET vertex [where]
//   path      := PATH vertex vertex {vertex} [MAXLEN number]
//   neighbors := NEIGHBORS vertex [DEPTH number] [where]
//   rank      := RANK TOP number [ITER number]
//   cc        := CC
//   count     := COUNT TRIANGLES
//   stats     := STATS
//   where     := WHERE META op number        op := '=' '!=' '<' '>'
//
// Parse and plan errors are STRUCTURED values (message + byte offset),
// never exceptions: the parser must survive arbitrary hostile bytes
// (the fuzz suite feeds it random mutations and non-UTF8 garbage under
// both sanitizer presets).
//
// Plan shapes (DESIGN.md "Serving front-end"):
//   GET/NEIGHBORS  -> point-lookup scheduler jobs (one per depth level),
//                     executed by ServeSession (no analysis steps here);
//   PATH           -> one "cbfs" analysis step per consecutive leg — the
//                     canonical multi-job plan (per-plan accounting sums
//                     over all of a plan's sched.q<id>.* rows);
//   RANK TOP k     -> "toprank" (PageRank + deterministic global top-k);
//   CC             -> "lp-cc"; COUNT TRIANGLES -> "triangles";
//   STATS          -> "stats" (a read-only full-graph scan).
// Every step runs shared: the registry marks only Algorithms 1 and 2
// exclusive, and no plan uses them.
//
// Each analysis step declares how many trailing wall-clock values to
// drop from its result: rendered plan results carry only deterministic
// fields, which is what makes parse->plan->run byte-identical to direct
// API composition.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "graphdb/graphdb.hpp"

namespace mssg::serve {

/// Scheduling class a query maps to (per-class priority/deadline in
/// ServeConfig): point lookups above bounded traversals above
/// full-graph scans.
enum class QueryClass { kPoint, kTraversal, kScan };

[[nodiscard]] const char* to_string(QueryClass c);

/// A structured parse/plan failure: what went wrong and WHERE (byte
/// offset into the query text, 0-based).
struct QueryError {
  std::string message;
  std::size_t position = 0;

  [[nodiscard]] std::string to_string() const {
    return message + " (at byte " + std::to_string(position) + ")";
  }
};

/// Optional metadata filter on point lookups (`WHERE META = 3`): keep a
/// neighbor u when `metadata(u) <op> value` holds.
struct WhereClause {
  bool present = false;
  MetadataOp op = MetadataOp::kAll;
  Metadata value = 0;
};

/// Parsed query AST — one statement per query string.
struct Statement {
  enum class Kind { kGet, kPath, kNeighbors, kRank, kCc, kCountTriangles,
                    kStats };
  Kind kind = Kind::kGet;
  std::vector<VertexId> vertices;  ///< GET/NEIGHBORS: 1; PATH: >= 2
  std::uint64_t maxlen = 0;        ///< PATH hop bound; 0 = unlimited
  std::uint64_t depth = 1;         ///< NEIGHBORS expansion depth (>= 1)
  std::uint64_t top_k = 0;         ///< RANK TOP k (>= 1)
  std::uint64_t iterations = 0;    ///< RANK ITER n; 0 = analysis default
  WhereClause where;
};

struct ParseResult {
  std::optional<Statement> statement;
  QueryError error;

  [[nodiscard]] bool ok() const { return statement.has_value(); }
};

/// Lexes + parses one query.  Never throws on malformed input: hostile
/// bytes come back as `error` with a position.
[[nodiscard]] ParseResult parse_query(std::string_view text);

/// One QueryService analysis invocation inside a plan.  `drop_trailing`
/// marks the wall-clock tail of the analysis result layout, excluded
/// from the rendered plan result (timing is not deterministic).
struct AnalysisStep {
  std::string analysis;
  std::vector<std::uint64_t> params;
  std::size_t drop_trailing = 0;
};

/// An executable plan.  Analysis-backed statements carry their steps;
/// GET/NEIGHBORS plans have no steps — ServeSession drives their
/// point-lookup jobs level by level (the frontier is data-dependent).
struct Plan {
  Statement statement;
  QueryClass query_class = QueryClass::kPoint;
  std::vector<AnalysisStep> steps;

  /// One-line human description ("path legs=3 class=traversal").
  [[nodiscard]] std::string describe() const;
};

struct PlanResult {
  std::optional<Plan> plan;
  QueryError error;

  [[nodiscard]] bool ok() const { return plan.has_value(); }
};

/// Compiles a parsed statement to a plan.
[[nodiscard]] PlanResult plan_statement(const Statement& statement);

/// parse_query + plan_statement in one step.
[[nodiscard]] PlanResult compile_query(std::string_view text);

}  // namespace mssg::serve
