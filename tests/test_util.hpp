// Shared helpers for the MSSG test suite.
#pragma once

#include <filesystem>
#include <memory>
#include <span>
#include <vector>

#include "common/temp_dir.hpp"
#include "common/types.hpp"
#include "gen/memory_graph.hpp"
#include "graphdb/graphdb.hpp"
#include "storage/file.hpp"

namespace mssg::testing {

/// Creates a backend with a small cache in a scratch directory.
inline std::unique_ptr<GraphDB> make_db(Backend backend, const TempDir& dir,
                                        GraphDBConfig config = {}) {
  config.dir = dir.path();
  return make_graphdb(backend, config);
}

/// A tiny fixed graph used across contract tests:
///
///   0 - 1 - 2
///   |   |
///   3 - 4       5 (isolated from the component above via 6)
///   6 - 5
inline std::vector<Edge> tiny_graph_directed() {
  // Both orientations (the frameworks store directed edges).
  std::vector<Edge> edges;
  for (const Edge e : std::initializer_list<Edge>{
           {0, 1}, {1, 2}, {0, 3}, {1, 4}, {3, 4}, {6, 5}}) {
    edges.push_back(e);
    edges.push_back(Edge{e.dst, e.src});
  }
  return edges;
}

/// Reference k-hop count on the in-memory graph: vertices within k hops
/// of src, src excluded.
inline std::uint64_t reference_khop(const MemoryGraph& g, VertexId src,
                                    Metadata k) {
  const auto levels = g.bfs_levels(src);
  std::uint64_t count = 0;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (v != src && levels[v] != kUnvisited && levels[v] <= k) ++count;
  }
  return count;
}

/// Every request's list, read through one get_adjacency_batch call.
inline std::vector<std::vector<VertexId>> batch_lists(
    GraphDB& db, std::span<const VertexId> vertices) {
  std::vector<std::vector<VertexId>> lists;
  db.get_adjacency_batch(
      vertices, [&](std::size_t, std::span<const VertexId> list) {
        lists.emplace_back(list.begin(), list.end());
        return true;
      });
  return lists;
}

/// A whole file's bytes.
inline std::vector<std::byte> read_file(const std::filesystem::path& path) {
  const File file = File::open_readonly(path);
  std::vector<std::byte> bytes(file.size());
  file.read_at(0, bytes);
  return bytes;
}

/// Replaces the file at `path` with `bytes`.
inline void write_file(const std::filesystem::path& path,
                       std::span<const std::byte> bytes) {
  std::filesystem::remove(path);
  const File file = File::open(path);
  if (!bytes.empty()) file.write_at(0, bytes);
}

/// Copies every file of a closed store's directory into `to`.
inline void copy_store(const std::filesystem::path& from,
                       const std::filesystem::path& to) {
  for (const auto& entry : std::filesystem::directory_iterator(from)) {
    std::filesystem::copy(entry.path(), to / entry.path().filename());
  }
}

/// Sorted copy (adjacency order is backend-specific).
inline std::vector<VertexId> sorted(std::vector<VertexId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace mssg::testing
