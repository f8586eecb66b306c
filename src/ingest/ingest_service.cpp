#include "ingest/ingest_service.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "common/vertex_codec.hpp"
#include "runtime/filter.hpp"

namespace mssg {

double IngestReport::imbalance() const {
  if (per_backend.empty()) return 1.0;
  const auto [min_it, max_it] =
      std::minmax_element(per_backend.begin(), per_backend.end());
  // All backends empty is vacuously balanced (ratio 1.0), not 0.0 — a
  // zero would read as "better than perfectly balanced" in the reports.
  if (*max_it == 0) return 1.0;
  if (*min_it == 0) return static_cast<double>(*max_it);
  return static_cast<double>(*max_it) / static_cast<double>(*min_it);
}

namespace {

// Edge blocks ship through the pair codec (common/vertex_codec.hpp):
// after hash-mod routing every bucket shares its destination backend, so
// sorted (src, dst) pairs delta-encode tightly.  Sorting a block is safe
// — store_edges ingests a set, and routing already decides placement.

/// Front-end ingestion node: window the stream, partition, distribute.
class FrontEndFilter final : public Filter {
 public:
  FrontEndFilter(std::vector<std::unique_ptr<EdgeSource>>& sources,
                 Partitioner& partitioner, const IngestOptions& options,
                 MetricsRegistry& metrics)
      : sources_(sources),
        partitioner_(partitioner),
        options_(options),
        metrics_(metrics) {}

  void run(FilterContext& ctx) override {
    EdgeSource& source = *sources_[ctx.copy_index()];
    const auto backends = ctx.output_width("edges");

    std::vector<Edge> window;
    std::vector<Edge> block;
    std::vector<Rank> targets;
    std::vector<std::vector<VertexPair>> outgoing(backends);

    while (source.next_block(options_.window_edges, window)) {
      const TraceSpan window_span = metrics_.span("ingest.window");
      metrics_.counter("ingest.windows") += 1;
      // Build the routed block: undirected inputs contribute both
      // orientations, each routed by its own source endpoint.
      block.clear();
      for (const auto& e : window) {
        block.push_back(e);
        if (options_.symmetrize) block.push_back(Edge{e.dst, e.src});
      }
      targets.assign(block.size(), 0);
      partitioner_.route(block, targets);
      metrics_.counter("ingest.edges_routed") += block.size();

      for (auto& bucket : outgoing) bucket.clear();
      for (std::size_t i = 0; i < block.size(); ++i) {
        MSSG_CHECK(targets[i] >= 0 &&
                   static_cast<std::size_t>(targets[i]) < backends);
        outgoing[targets[i]].emplace_back(block[i].src, block[i].dst);
      }
      for (std::size_t b = 0; b < backends; ++b) {
        if (outgoing[b].empty()) continue;
        const std::size_t raw_bytes = raw_pair_wire_bytes(outgoing[b].size());
        std::vector<std::byte> encoded = encode_pair_set(outgoing[b]);
        metrics_.counter("ingest.payload_bytes_raw") += raw_bytes;
        metrics_.counter("ingest.payload_bytes_encoded") += encoded.size();
        ctx.output("edges", static_cast<int>(b)).put(std::move(encoded));
      }
    }
  }

 private:
  std::vector<std::unique_ptr<EdgeSource>>& sources_;
  Partitioner& partitioner_;
  const IngestOptions& options_;
  MetricsRegistry& metrics_;
};

/// Back-end storage node: drain edge blocks into the local GraphDB.
class BackEndFilter final : public Filter {
 public:
  BackEndFilter(std::span<GraphDB* const> backends,
                std::vector<std::uint64_t>& counts, std::size_t window_edges,
                MetricsRegistry& metrics)
      : backends_(backends),
        counts_(counts),
        window_edges_(window_edges),
        metrics_(metrics) {}

  void run(FilterContext& ctx) override {
    GraphDB& db = *backends_[ctx.copy_index()];
    DataStream& in = ctx.input("edges");
    std::uint64_t count = 0;
    std::vector<Edge> batch;
    std::vector<VertexPair> decoded;
    // Overlap storage with stream drain: store_edges runs while the
    // front-end keeps the bounded stream filled, then try_get() scoops
    // up what arrived in the meantime so the next store call amortizes
    // over it.  The scoop stops once the batch holds one window of
    // edges: a front end that outruns store_edges keeps every queue
    // full, and one call taking all of them would decode the whole
    // stream capacity at once.  ingest.batches still counts received
    // buffers, so its total stays a pure function of the input; the
    // coalescing degree is timing-dependent and therefore lives in a
    // histogram only.
    while (auto buffer = in.get()) {
      batch.clear();
      std::uint64_t buffers = 0;
      do {
        decode_pair_set(*buffer, decoded);
        for (const auto& [src, dst] : decoded) {
          batch.push_back(Edge{src, dst});
        }
        ++buffers;
      } while (batch.size() < window_edges_ && (buffer = in.try_get()));

      Timer store_timer;
      db.store_edges(batch);
      metrics_.histogram("ingest.store.us")
          .record(static_cast<std::uint64_t>(store_timer.seconds() * 1e6));
      metrics_.histogram("ingest.coalesced_buffers").record(buffers);
      count += batch.size();
      metrics_.counter("ingest.batches") += buffers;
      metrics_.counter("ingest.edges_stored") += batch.size();
    }
    db.finalize_ingest();
    counts_[ctx.copy_index()] = count;
  }

 private:
  std::span<GraphDB* const> backends_;
  std::vector<std::uint64_t>& counts_;
  std::size_t window_edges_;
  MetricsRegistry& metrics_;
};

}  // namespace

IngestReport run_ingestion(std::vector<std::unique_ptr<EdgeSource>> sources,
                           Partitioner& partitioner,
                           std::span<GraphDB* const> backends,
                           const IngestOptions& options) {
  MSSG_CHECK(!sources.empty());
  MSSG_CHECK(!backends.empty());

  IngestReport report;
  report.per_backend.assign(backends.size(), 0);

  // One registry for the run; every filter copy (one thread each)
  // counts into it.
  MetricsRegistry metrics;

  FilterGraph graph;
  graph.add_filter(
      "frontend",
      [&] {
        return std::make_unique<FrontEndFilter>(sources, partitioner, options,
                                                metrics);
      },
      static_cast<int>(sources.size()));
  graph.add_filter(
      "backend",
      [&] {
        return std::make_unique<BackEndFilter>(
            backends, report.per_backend, options.window_edges, metrics);
      },
      static_cast<int>(backends.size()));
  graph.connect("frontend", "edges", "backend", "edges",
                options.stream_capacity);

  Timer timer;
  graph.run();
  report.seconds = timer.seconds();
  for (const auto n : report.per_backend) report.edges_stored += n;
  report.metrics = metrics.snapshot();
  return report;
}

}  // namespace mssg
