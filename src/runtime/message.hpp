// Message envelope for the simulated cluster.  Mirrors the MPI model the
// thesis' prototype used underneath DataCutter: a tagged byte payload
// with a source rank.  The payload is a shared immutable PayloadBuffer,
// so fan-out (broadcast, allgather) enqueues references, not copies.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "runtime/payload.hpp"

namespace mssg {

/// Matches any tag / any source in recv calls.
inline constexpr int kAnyTag = -1;
inline constexpr Rank kAnyRank = -1;

/// Tags of the query layer's SPMD streams: one distinct range per
/// traversal, so a stray run on a shared world can never cross streams
/// with another (the scheduler additionally gives each query a private
/// sub-world).
enum QueryTag : int {
  kBfsFringeTag = 100,      ///< Algorithm 1: one fringe message per peer/level
  kBfsChunkTag = 101,       ///< Algorithm 2: eager fringe chunks
  kBfsLevelEndTag = 102,    ///< Algorithm 2: per-level chunk-stream terminator
  kBidirFringeTag = 110,    ///< bidirectional BFS fringe
  kMsBfsFringeTag = 120,    ///< MS-BFS (vertex, mask) fringe
  kVertexProgramTag = 130,  ///< VertexProgram engine message pairs
};

struct Message {
  int tag = 0;
  Rank source = -1;
  PayloadBuffer payload;
};

}  // namespace mssg
