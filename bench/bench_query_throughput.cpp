// bench_query_throughput -- latency and batched throughput of the
// unified query engine (query/engine.h) on a synthetic CPG, at 1/2/4/8
// analysis workers. One machine-readable JSON line per (query type,
// worker count): single-query latency (mean, p50 and p99 over every
// batch entry) plus run_batch queries/sec, with
// the serialized replies fingerprinted and compared across worker
// counts -- a line with "identical":false is a determinism bug.
//
// A second section serves the same snapshot over the framed UDS
// transport (net/) and drives it with 1/2/4 closed-loop clients --
// against a single-process server and against a 1- and 2-worker
// shard router -- reporting per-call latency percentiles, aggregate
// queries/sec, and whether every client saw the in-process reply
// bytes ("identical":false is a transport bug).
//
// Deliberately not a google-benchmark binary (same rationale as
// bench_analysis_scaling): the unit of interest is one batch per
// worker count, not a tight-loop microsecond rate.
//
//   bench_query_throughput [--quick]
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "bench_json.h"
#include "net/client.h"
#include "net/dispatcher.h"
#include "net/query_service.h"
#include "net/router.h"
#include "net/uds.h"
#include "obs/metrics.h"
#include "query/engine.h"
#include "query/wire.h"
#include "shard/engine.h"
#include "shard/planner.h"
#include "shard/store.h"
#include "synthetic_history.h"
#include "util/parallel.h"

namespace {

using namespace inspector;
using Clock = std::chrono::steady_clock;

using bench::synthetic_cpg;

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// A batch of one query type with cycling parameters, so the cache
/// cannot collapse the work.
std::vector<query::Query> make_batch(const std::string& type,
                                     const cpg::Graph& g, std::size_t count) {
  const auto nodes = static_cast<cpg::NodeId>(g.nodes().size());
  const auto pages = g.pages();
  std::vector<query::Query> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto node = static_cast<cpg::NodeId>(i % nodes);
    if (type == "backward_slice") {
      batch.emplace_back(query::BackwardSliceQuery{node});
    } else if (type == "forward_slice") {
      batch.emplace_back(query::ForwardSliceQuery{node});
    } else if (type == "latest_writers") {
      batch.emplace_back(query::LatestWritersQuery{node});
    } else if (type == "data_dependencies") {
      batch.emplace_back(query::DataDependenciesQuery{node});
    } else if (type == "page_accessors") {
      batch.emplace_back(query::PageAccessorsQuery{pages[i % pages.size()]});
    } else if (type == "happens_before") {
      batch.emplace_back(query::HappensBeforeQuery{
          node, static_cast<cpg::NodeId>((i + 1) % nodes)});
    } else if (type == "races") {
      batch.emplace_back(query::RacesQuery{0, {pages[i % pages.size()]}});
    } else if (type == "taint") {
      batch.emplace_back(
          query::TaintQuery{{pages[i % pages.size()]}, true});
    } else if (type == "invalidate") {
      batch.emplace_back(query::InvalidateQuery{{pages[i % pages.size()]}});
    } else if (type == "critical_path") {
      batch.emplace_back(query::CriticalPathQuery{});
    } else {
      batch.emplace_back(query::StatsQuery{});
    }
  }
  return batch;
}

/// The `pct`-th percentile (nearest rank) of ascending samples.
double percentile(const std::vector<double>& sorted, std::size_t pct) {
  return sorted.empty() ? 0.0 : sorted[sorted.size() * pct / 100];
}

struct Measurement {
  double batch_ms = 0;
  /// Single-query latency over every batch entry, run one at a time:
  /// mean and nearest-rank percentiles.
  double latency_ms = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  std::uint64_t hash = 0;
};

Measurement measure(std::shared_ptr<const cpg::Graph> snapshot,
                    const std::vector<query::Query>& batch) {
  // A fresh engine per measurement (cold sessions); skip_cache below
  // keeps the cache out of the numbers, so the snapshot is shared.
  query::QueryEngine engine(std::move(snapshot));
  query::QueryOptions options;
  options.skip_cache = true;

  Measurement m;
  const auto t0 = Clock::now();
  const auto replies = engine.run_batch(
      query::QueryEngine::kDefaultSession, batch, options);
  m.batch_ms = ms_since(t0);

  m.hash = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    m.hash = fnv1a(m.hash, query::wire::serialize_reply(i + 1, replies[i]));
  }

  // Every entry, not a prefix: batches cycle anchors by id, so the
  // first entries are the cheapest (near-empty low-id slices).
  std::vector<double> latencies;
  latencies.reserve(batch.size());
  for (const query::Query& q : batch) {
    const auto t1 = Clock::now();
    (void)engine.run(q, options);
    latencies.push_back(ms_since(t1));
  }
  double total = 0;
  for (const double l : latencies) total += l;
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    m.latency_ms = total / static_cast<double>(latencies.size());
  }
  m.latency_p50_ms = percentile(latencies, 50);
  m.latency_p99_ms = percentile(latencies, 99);
  return m;
}

/// Canonical wire request lines cycling over the cheap node-addressed
/// query types, so closed-loop socket clients measure transport + engine
/// work rather than one pathological query.
std::vector<std::string> make_lines(const cpg::Graph& g, std::size_t count) {
  static const char* kOps[] = {"backward_slice", "forward_slice",
                               "latest_writers"};
  const auto nodes = g.nodes().size();
  std::vector<std::string> lines;
  lines.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    lines.push_back("{\"id\":" + std::to_string(i + 1) + ",\"op\":\"" +
                    kOps[i % 3] + "\",\"node\":" + std::to_string(i % nodes) +
                    "}");
  }
  return lines;
}

/// What the in-process engine prints for `lines`: the byte-identity
/// baseline every served client is compared against.
std::uint64_t expected_hash(std::shared_ptr<const cpg::Graph> snapshot,
                            const std::vector<std::string>& lines) {
  query::QueryEngine engine(std::move(snapshot));
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::string& line : lines) {
    std::uint64_t id = 0;
    const auto parsed = query::wire::parse_request(line, &id);
    h = fnv1a(h, query::wire::serialize_reply(
                     id, engine.run(std::get<query::Query>(parsed.value().op),
                                    {})));
  }
  return h;
}

struct ServedRun {
  double wall_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  bool identical = true;
};

/// Closed-loop clients: each thread opens its own connection and walks
/// the request list with blocking call()s, so latency includes framing,
/// the socket round trip, and dispatch on both ends.
ServedRun drive_clients(const std::string& path, unsigned clients,
                        const std::vector<std::string>& lines,
                        std::uint64_t want) {
  ServedRun run;
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::uint64_t> hashes(clients, 0xCBF29CE484222325ULL);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = net::QueryClient::connect(path);
      if (!client.ok()) {
        hashes[c] = 0;
        return;
      }
      latencies[c].reserve(lines.size());
      for (const std::string& line : lines) {
        const auto t1 = Clock::now();
        auto reply = (*client)->call(line);
        latencies[c].push_back(ms_since(t1));
        if (!reply.ok()) {
          hashes[c] = 0;
          return;
        }
        hashes[c] = fnv1a(hashes[c], *reply);
      }
      (void)(*client)->goodbye();
    });
  }
  for (auto& t : threads) t.join();
  run.wall_ms = ms_since(t0);
  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  run.p50_ms = percentile(all, 50);
  run.p99_ms = percentile(all, 99);
  for (const std::uint64_t h : hashes) run.identical = run.identical && h == want;
  return run;
}

void print_served(const char* mode, unsigned workers, unsigned clients,
                  std::size_t calls, const ServedRun& run) {
  bench::JsonLine("query_throughput")
      .field("transport", "uds")
      .field("mode", mode)
      .field("workers", workers)
      .field("clients", clients)
      .field("calls", calls)
      .field("ms", run.wall_ms)
      .field("qps", run.wall_ms > 0
                        ? 1000.0 * static_cast<double>(calls) / run.wall_ms
                        : 0.0)
      .field("latency_p50_ms", run.p50_ms)
      .field("latency_p99_ms", run.p99_ms)
      .field("identical", run.identical)
      .emit();
}

/// Per-phase latency percentiles from the process-wide metrics
/// registry: every histogram the instrumented layers populated during
/// the runs above (query_latency_us per kind, net stream/finalize
/// wall time, shard decode, task-pool waits). One line per series, so
/// BENCH trajectories can track where the time goes, not just the
/// end-to-end rate.
void print_phase_histograms() {
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  for (const auto& s : snap.series) {
    if (s.kind != obs::SeriesSnapshot::Kind::kHistogram) continue;
    if (s.histogram.count == 0) continue;
    bench::JsonLine("query_throughput")
        .field("histogram", s.name)
        .field("count", s.histogram.count)
        .field("p50_us", s.histogram.percentile(0.50))
        .field("p90_us", s.histogram.percentile(0.90))
        .field("p99_us", s.histogram.percentile(0.99))
        .field("mean_us", static_cast<double>(s.histogram.sum) /
                              static_cast<double>(s.histogram.count))
        .emit();
  }
}

/// Serve the snapshot over UDS (single-process, then 1- and 2-worker
/// routed shard stores) and report closed-loop client throughput.
/// Returns false if any client saw non-baseline bytes.
bool bench_served(std::shared_ptr<const cpg::Graph> snapshot, bool quick) {
  const auto lines = make_lines(*snapshot, quick ? 48 : 192);
  const std::uint64_t want = expected_hash(snapshot, lines);
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("bench_query_sock." + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  bool all_identical = true;

  {
    net::QueryService service(
        std::make_shared<query::QueryEngine>(snapshot));
    auto server = net::uds::Server::listen(dir + "/single.sock");
    if (!server.ok()) {
      std::cerr << "bench_served: " << server.status().message() << "\n";
      return false;
    }
    net::ServeLoop loop(std::move(server).value(), service);
    loop.start();
    for (const unsigned clients : {1u, 2u, 4u}) {
      const ServedRun run =
          drive_clients(loop.path(), clients, lines, want);
      all_identical = all_identical && run.identical;
      print_served("single", 0, clients, clients * lines.size(), run);
    }
    loop.stop();
  }

  const auto manifest =
      shard::write_store(*snapshot, dir + "/store", shard::PlanOptions{4});
  if (!manifest.ok()) {
    std::cerr << "bench_served: " << manifest.status().message() << "\n";
    return false;
  }
  for (const unsigned workers : {1u, 2u}) {
    std::vector<net::WorkerEndpoint> endpoints;
    std::vector<std::unique_ptr<net::QueryService>> services;
    std::vector<std::unique_ptr<net::ServeLoop>> loops;
    for (unsigned w = 0; w < workers; ++w) {
      net::WorkerEndpoint ep;
      ep.socket_path = dir + "/w" + std::to_string(w) + ".sock";
      ep.shard_lo = manifest->shard_count * w / workers;
      ep.shard_hi = manifest->shard_count * (w + 1) / workers;
      auto store = shard::ShardStore::open(dir + "/store");
      if (!store.ok()) {
        std::cerr << "bench_served: " << store.status().message() << "\n";
        return false;
      }
      services.push_back(std::make_unique<net::QueryService>(
          std::make_shared<shard::ShardedQueryEngine>(
              std::move(store).value())));
      auto server = net::uds::Server::listen(ep.socket_path);
      if (!server.ok()) {
        std::cerr << "bench_served: " << server.status().message() << "\n";
        return false;
      }
      loops.push_back(std::make_unique<net::ServeLoop>(
          std::move(server).value(), *services.back()));
      loops.back()->start();
      endpoints.push_back(std::move(ep));
    }
    net::RouterService router(manifest.value(), endpoints);
    auto front = net::uds::Server::listen(dir + "/router.sock");
    if (!front.ok()) {
      std::cerr << "bench_served: " << front.status().message() << "\n";
      return false;
    }
    net::ServeLoop loop(std::move(front).value(), router);
    loop.start();
    for (const unsigned clients : {1u, 2u, 4u}) {
      const ServedRun run =
          drive_clients(loop.path(), clients, lines, want);
      all_identical = all_identical && run.identical;
      print_served("router", workers, clients, clients * lines.size(), run);
    }
    loop.stop();
  }
  std::filesystem::remove_all(dir);
  return all_identical;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  const auto snapshot = std::make_shared<const cpg::Graph>(
      quick ? synthetic_cpg(8, 16, 12) : synthetic_cpg(16, 48, 20));
  const cpg::Graph& source = *snapshot;
  const std::size_t light_batch = quick ? 128 : 512;
  const std::size_t heavy_batch = quick ? 4 : 16;

  const struct {
    const char* type;
    bool heavy;
  } kinds[] = {
      {"backward_slice", false}, {"forward_slice", false},
      {"latest_writers", false}, {"data_dependencies", false},
      {"page_accessors", false}, {"happens_before", false},
      {"races", true},           {"taint", true},
      {"invalidate", true},      {"critical_path", true},
      {"stats", false},
  };

  bool all_identical = true;
  for (const auto& kind : kinds) {
    const auto batch = make_batch(
        kind.type, source, kind.heavy ? heavy_batch : light_batch);
    Measurement baseline;
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
      util::set_analysis_threads(workers);
      const Measurement m = measure(snapshot, batch);
      if (workers == 1) baseline = m;
      const bool identical = m.hash == baseline.hash;
      all_identical = all_identical && identical;
      bench::JsonLine("query_throughput")
          .field("query", kind.type)
          .field("nodes", source.nodes().size())
          .field("pages", source.page_count())
          .field("workers", workers)
          .field("batch", batch.size())
          .field("ms", m.batch_ms)
          .field("qps", m.batch_ms > 0
                            ? 1000.0 * static_cast<double>(batch.size()) /
                                  m.batch_ms
                            : 0.0)
          .field("latency_ms", m.latency_ms)
          .field("latency_p50_ms", m.latency_p50_ms)
          .field("latency_p99_ms", m.latency_p99_ms)
          .field("speedup_vs_1w",
                 m.batch_ms > 0 ? baseline.batch_ms / m.batch_ms : 0.0)
          .field("identical", identical)
          .emit();
    }
  }
  util::set_analysis_threads(0);
  all_identical = bench_served(snapshot, quick) && all_identical;
  print_phase_histograms();
  if (!all_identical) {
    std::cerr << "DETERMINISM VIOLATION: query replies differ across "
                 "worker counts\n";
    return 1;
  }
  return 0;
}
