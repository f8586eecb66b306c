#include "graphdb/graphdb.hpp"

#include "common/error.hpp"

namespace mssg {

namespace {
std::unique_ptr<MetadataStore> make_metadata(const GraphDBConfig& config,
                                             IoStats* stats) {
  if (config.external_metadata) {
    std::filesystem::create_directories(config.dir);
    return std::make_unique<ExternalMetadata>(config.dir / "metadata.dat",
                                              config.max_vertices,
                                              /*cache_bytes=*/1u << 20, stats);
  }
  return std::make_unique<InMemoryMetadata>();
}
}  // namespace

GraphDB::GraphDB(const GraphDBConfig& config)
    : metadata_(make_metadata(config, &stats_)) {}

bool GraphDB::metadata_matches(Metadata lhs, Metadata rhs, MetadataOp op) {
  switch (op) {
    case MetadataOp::kAll:
      return true;
    case MetadataOp::kNotEqual:
      return lhs != rhs;
    case MetadataOp::kEqual:
      return lhs == rhs;
    case MetadataOp::kGreater:
      return lhs > rhs;
    case MetadataOp::kLess:
      return lhs < rhs;
  }
  throw UsageError("unknown MetadataOp");
}

void GraphDB::get_adjacency_using_metadata(VertexId v,
                                           std::vector<VertexId>& out,
                                           Metadata metadata, MetadataOp op) {
  if (op == MetadataOp::kAll) {
    get_adjacency(v, out);
    return;
  }
  std::vector<VertexId> all;
  get_adjacency(v, all);
  for (const VertexId u : all) {
    if (metadata_matches(get_metadata(u), metadata, op)) out.push_back(u);
  }
}

void GraphDB::get_adjacency_batch(std::span<const VertexId> vertices,
                                  const AdjacencyVisitor& visit) {
  std::vector<VertexId> list;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    list.clear();
    get_adjacency(vertices[i], list);
    if (!visit(i, list)) return;
  }
}

Metadata GraphDB::get_metadata(VertexId v) { return metadata_->get(v); }

void GraphDB::set_metadata(VertexId v, Metadata metadata) {
  metadata_->set(v, metadata);
}

void GraphDB::clear_metadata(Metadata fill) { metadata_->clear(fill); }

void GraphDB::publish_metrics(MetricsSnapshot& snap) const {
  snap.merge(metrics_.snapshot());
}

std::string to_string(Backend backend) {
  switch (backend) {
    case Backend::kArray:
      return "Array";
    case Backend::kHashMap:
      return "HashMap";
    case Backend::kRelational:
      return "Relational(MySQL)";
    case Backend::kKVStore:
      return "KVStore(BerkeleyDB)";
    case Backend::kStream:
      return "StreamDB";
    case Backend::kGrDB:
      return "grDB";
  }
  throw UsageError("unknown Backend");
}

}  // namespace mssg
