#include <filesystem>

#include "graphdb/array_db.hpp"
#include "graphdb/graphdb.hpp"
#include "graphdb/grdb/grdb.hpp"
#include "graphdb/hashmap_db.hpp"
#include "graphdb/kvstore_db.hpp"
#include "graphdb/relational_db.hpp"
#include "graphdb/stream_db.hpp"

namespace mssg {

std::unique_ptr<GraphDB> make_graphdb(Backend backend,
                                      const GraphDBConfig& config) {
  const bool on_disk = backend == Backend::kRelational ||
                       backend == Backend::kKVStore ||
                       backend == Backend::kStream || backend == Backend::kGrDB;
  if (on_disk) std::filesystem::create_directories(config.dir);

  switch (backend) {
    case Backend::kArray:
      return std::make_unique<ArrayDB>(config);
    case Backend::kHashMap:
      return std::make_unique<HashMapDB>(config);
    case Backend::kRelational:
      return std::make_unique<RelationalDB>(config);
    case Backend::kKVStore:
      return std::make_unique<KVStoreDB>(config);
    case Backend::kStream:
      return std::make_unique<StreamDB>(config);
    case Backend::kGrDB:
      return std::make_unique<GrDB>(config);
  }
  throw UsageError("unknown Backend");
}

}  // namespace mssg
