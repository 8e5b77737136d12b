// perfbench -- the end-to-end provenance benchmark.
//
//   perfbench --workload ingest|point_inmem|mixed_routed
//             --seed N --seconds S --trace 0|1
//             --server PATH_TO_inspector_query --work DIR
//             --metrics NAME:UNIT[,NAME:UNIT...]
//
// Runs one workload against the shipped pipeline, checks every output,
// prints one report line per measured quantity ("metric <name> <value>
// <unit>"), and ends with one JSON line holding the --metrics list
// (run.py passes BENCHMARK.json's end-to-end set with --trace 0 and
// its per-layer set with --trace 1). Exit status 1 on any correctness
// failure (a reply that differs from the in-process engine's bytes, a
// CPG that does not round-trip, an fsck finding, a stats mismatch), 2
// on bad usage. All files are written under --work, which the caller
// owns.
//
// perfbench/README.md explains the workloads, the metric -> layer map,
// and the thread budget.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cpg/recorder.h"
#include "cpg/serialize.h"
#include "history.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "query/engine.h"
#include "query/wire.h"
#include "requests.h"
#include "shard/engine.h"
#include "shard/fsck.h"
#include "shard/planner.h"
#include "shard/store.h"
#include "stats.h"
#include "trace.h"
#include "util/parallel.h"

namespace {

using namespace inspector;
using perfbench::Tracer;
namespace fs = std::filesystem;

// --- workload sizes ----------------------------------------------------

/// The ingest history: the largest size the pipeline is expected to
/// handle in CI (about 3 * 10^5 nodes).
constexpr std::uint32_t kIngestNodes = 300000;
/// The served history. Large enough that slices and scans do real
/// work and that half a worker's shard range does not fit its budget;
/// small enough that one request stays in the millisecond range.
constexpr std::uint32_t kServeNodes = 8000;
/// Shards in every written store.
constexpr std::uint32_t kShards = 8;
/// The store is first written from a clean rank prefix of this share
/// of the history, then extended with shard::append.
constexpr double kPrefixShare = 0.8;
/// Set-ups per run; setup_s is their median. Set-up writes fsynced
/// stores, whose latency on a shared disk swings more than compute.
constexpr int kSetups = 7;
/// Closed-loop client connections of the serving workloads.
constexpr int kClients = 2;
/// Router workers of mixed_routed.
constexpr int kRouterWorkers = 2;
/// Requests per scan request in mixed_routed.
constexpr std::uint32_t kScanOneIn = 16;
/// Untimed seconds of client load before the timed window of a serving
/// run, so the window sees the steady state: the server's result cache
/// filled and its pages faulted in. Warm-up replies are still checked.
constexpr double kWarmupSeconds = 2;

const char* const kAllKinds[] = {
    "backward_slice", "forward_slice", "latest_writers", "data_dependencies",
    "page_accessors", "happens_before", "races",         "taint",
    "invalidate",     "critical_path"};

// --- report ------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_[name] = {value, unit};
    std::cout << "metric " << name << " " << format(value) << " " << unit;
    if (!note.empty()) std::cout << " (" << note << ")";
    std::cout << "\n";
  }
  void set_percentile(const std::string& name, const perfbench::Percentile& p,
                      const std::string& unit) {
    set(name, p.value, unit,
        "samples=" + std::to_string(p.samples) +
            " beyond=" + std::to_string(p.beyond));
  }
  [[nodiscard]] std::optional<Metric> get(const std::string& name) const {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) return std::nullopt;
    return it->second;
  }

  static std::string format(double v) {
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
  }

 private:
  std::map<std::string, Metric> metrics_;
};

// --- helpers -------------------------------------------------------------

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(perfbench::now_ns() - start_ns) / 1e9;
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t directory_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

void write_file(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

/// VmHWM of a process in MiB (0 if it is gone).
double peak_rss_mb_of(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

std::vector<pid_t> children_of(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/task/" +
                   std::to_string(pid) + "/children");
  std::vector<pid_t> out;
  pid_t child = 0;
  while (in >> child) out.push_back(child);
  return out;
}

/// A number after `"key":` in a metrics-rpc reply (0 when absent).
double json_number(std::string_view text, std::string_view key,
                   std::size_t from = 0) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = text.find(needle, from);
  if (at == std::string_view::npos) return 0;
  return std::strtod(std::string(text.substr(at + needle.size(), 32)).c_str(),
                     nullptr);
}

/// (count, sum) of a histogram in a metrics-rpc reply.
std::pair<double, double> json_histogram(std::string_view text,
                                         std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":{";
  const std::size_t at = text.find(needle);
  if (at == std::string_view::npos) return {0, 0};
  return {json_number(text, "count", at), json_number(text, "sum", at)};
}

// --- the ingest pass ---------------------------------------------------

struct PassResult {
  double seconds = 0;
  std::shared_ptr<const cpg::Graph> graph;  ///< the deserialized history
  std::vector<std::uint8_t> cpg_bytes;
  std::uint64_t store_bytes = 0;
  shard::AppendResult append;
  std::string stats_reply;
};

/// One pass of the write path, timed end to end: record -> finalize
/// -> serialize -> deserialize -> LZ store from a rank prefix ->
/// append the full history -> reopen -> answer `stats`.
PassResult ingest_pass(const perfbench::History& history,
                       const fs::path& store_dir, Tracer& tracer) {
  fs::remove_all(store_dir);
  PassResult out;
  const std::int64_t start = perfbench::now_ns();
  const std::int32_t pass = tracer.begin("bench.ingest_pass");
  {
    std::optional<cpg::Graph> graph;
    {
      cpg::Recorder recorder;
      {
        Tracer::Scope s(tracer, "cpg.record");
        perfbench::replay(history, recorder);
      }
      Tracer::Scope s(tracer, "cpg.finalize");
      graph.emplace(std::move(recorder).finalize());
    }
    Tracer::Scope s(tracer, "cpg.serialize");
    out.cpg_bytes = cpg::serialize(*graph);
  }
  {
    Tracer::Scope s(tracer, "cpg.deserialize");
    auto graph = cpg::deserialize_checked(out.cpg_bytes);
    if (!graph.ok()) throw std::runtime_error(graph.status().message());
    out.graph = std::make_shared<const cpg::Graph>(std::move(graph).value());
  }
  {
    std::optional<cpg::Graph> prefix;
    {
      Tracer::Scope s(tracer, "shard.rank_prefix");
      auto cut = shard::rank_prefix(
          *out.graph, static_cast<std::uint32_t>(
                          kPrefixShare * static_cast<double>(
                                             out.graph->nodes().size())));
      if (!cut.ok()) throw std::runtime_error(cut.status().message());
      prefix.emplace(std::move(cut).value());
    }
    Tracer::Scope s(tracer, "shard.write");
    auto manifest = shard::write_store(*prefix, store_dir.string(),
                                       {.shard_count = kShards},
                                       shard::ShardCodec::kLz);
    if (!manifest.ok()) throw std::runtime_error(manifest.status().message());
  }
  {
    Tracer::Scope s(tracer, "shard.append");
    auto appended = shard::append(store_dir.string(), *out.graph);
    if (!appended.ok()) throw std::runtime_error(appended.status().message());
    out.append = std::move(appended).value();
  }
  std::shared_ptr<shard::ShardStore> store;
  {
    Tracer::Scope s(tracer, "shard.open");
    auto opened = shard::ShardStore::open(store_dir.string());
    if (!opened.ok()) throw std::runtime_error(opened.status().message());
    store = std::move(opened).value();
  }
  {
    Tracer::Scope s(tracer, "query.stats");
    shard::ShardedQueryEngine engine(store);
    out.stats_reply = query::wire::serialize_reply(
        0, engine.run(query::StatsQuery{}));
  }
  out.seconds = seconds_since(start);
  tracer.end(pass);
  out.store_bytes = directory_bytes(store_dir);
  return out;
}

/// The ingest correctness gate; returns the failures found.
std::vector<std::string> check_pass(const PassResult& pass,
                                    const perfbench::History& history,
                                    const fs::path& store_dir) {
  std::vector<std::string> failures;
  if (pass.graph->nodes().size() != history.node_count) {
    failures.push_back("recorded " + std::to_string(pass.graph->nodes().size()) +
                       " nodes, expected " +
                       std::to_string(history.node_count));
  }
  if (cpg::serialize(*pass.graph) != pass.cpg_bytes) {
    failures.push_back(".cpg does not round-trip byte for byte");
  }
  auto report = shard::fsck(store_dir.string());
  if (!report.ok()) {
    failures.push_back("fsck: " + report.status().message());
  } else if (!report->clean()) {
    failures.push_back("fsck: " + std::to_string(report->issues.size()) +
                       " issue(s), first: " + report->issues.front().detail);
  }
  query::QueryEngine reference(pass.graph);
  const std::string expected = query::wire::serialize_reply(
      0, reference.run(query::StatsQuery{}));
  if (expected != pass.stats_reply) {
    failures.push_back("reopened store stats " + pass.stats_reply +
                       " != in-memory " + expected);
  }
  return failures;
}

void report_history(const perfbench::History& history,
                    const cpg::Graph& graph) {
  std::cout << "history nodes=" << graph.nodes().size()
            << " edges=" << graph.edges().size()
            << " pages=" << graph.page_count()
            << " shared_pages=" << history.shared_pages
            << " threads=" << graph.thread_count() << "\n";
}

double lz_ratio(const shard::Manifest& manifest) {
  double decoded = 0, encoded = 0;
  for (const shard::ShardInfo& s : manifest.shards) {
    decoded += static_cast<double>(s.decoded_bytes);
    encoded += static_cast<double>(s.byte_size);
  }
  return encoded > 0 ? decoded / encoded : 0;
}

/// Per-layer numbers every workload reports from its ingest spans.
void report_write_layers(Report& report, const Tracer& tracer,
                         const PassResult& pass) {
  const auto& spans = tracer.spans();
  for (const char* name : {"cpg.record", "cpg.finalize", "cpg.serialize",
                           "cpg.deserialize", "shard.rank_prefix",
                           "shard.write", "shard.append", "shard.open"}) {
    const auto us = perfbench::durations_us(spans, name);
    report.set(std::string(name) + "_ms", perfbench::median(us) / 1e3, "ms",
               "median of " + std::to_string(us.size()) + " passes");
  }
  report.set("cpg.bytes", static_cast<double>(pass.cpg_bytes.size()), "B");
  report.set("shard.append_rewritten_shards", pass.append.shards_rewritten,
             "count");
  report.set("shard.append_kept_shards", pass.append.shards_kept, "count");
  report.set("snapshot.lz_ratio", lz_ratio(pass.append.manifest), "x");
}

/// Self time per layer, per traced operation (a root span: one ingest
/// pass or one request round trip), plus the layer that dominates.
void report_self_times(Report& report, const std::vector<perfbench::Span>& spans,
                       const std::string& scope) {
  const auto self = perfbench::layer_self_ns(spans);
  double ops = 0;
  std::int64_t total = 0;
  for (const perfbench::Span& s : spans) ops += s.parent < 0 ? 1 : 0;
  for (const auto& [layer, ns] : self) total += ns;
  std::string dominant = "none";
  std::int64_t best = -1;
  for (const auto& [layer, ns] : self) {
    if (ns > best) {
      best = ns;
      dominant = layer;
    }
  }
  for (const char* layer : {"cpg", "shard", "query", "net", "bench"}) {
    const auto it = self.find(layer);
    const double ns = it == self.end() ? 0.0 : static_cast<double>(it->second);
    const double pct = total > 0 ? 100.0 * ns / static_cast<double>(total) : 0;
    report.set(std::string(layer) + ".self_ms", ops > 0 ? ns / ops / 1e6 : 0.0,
               "ms",
               Report::format(pct) + "% of self time, " + scope);
  }
  std::cout << "dominant_layer " << dominant << " (" << scope << ")\n";
}

// --- ingest workload -----------------------------------------------------

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Outcome run_ingest(std::uint64_t seed, double seconds, bool trace,
                   Report& report) {
  util::set_analysis_threads(2);

  std::vector<double> setups;
  perfbench::History history;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t start = perfbench::now_ns();
    history = perfbench::generate_history(kIngestNodes, seed);
    setups.push_back(seconds_since(start));
  }

  Outcome outcome;
  const fs::path store_dir = "store";
  Tracer untraced(false);
  // Warm-up pass: the allocator and page cache reach steady state
  // before timing; its outputs are checked like every other pass.
  PassResult last = ingest_pass(history, store_dir, untraced);
  for (const std::string& f : check_pass(last, history, store_dir)) {
    std::cout << "FAIL " << f << "\n";
    outcome.correct = false;
  }
  report_history(history, *last.graph);

  const auto pool_before = obs::Registry::global().snapshot();
  Tracer tracer(trace);
  std::vector<double> traced_s, untraced_s;
  double measured = 0;
  while (measured < seconds && outcome.correct) {
    // In the traced run passes alternate traced/untraced, so tracing
    // overhead is the difference of two medians from one run.
    const bool traced = trace && outcome.attempted % 2 == 0;
    ++outcome.attempted;
    try {
      last = ingest_pass(history, store_dir, traced ? tracer : untraced);
    } catch (const std::exception& e) {
      std::cout << "FAIL pass: " << e.what() << "\n";
      ++outcome.failed;
      outcome.correct = false;
      break;
    }
    measured += last.seconds;
    (traced ? traced_s : untraced_s).push_back(last.seconds);
    for (const std::string& f : check_pass(last, history, store_dir)) {
      std::cout << "FAIL " << f << "\n";
      outcome.correct = false;
    }
  }
  const double nodes = static_cast<double>(history.node_count);
  std::vector<double> all_s = traced_s;
  all_s.insert(all_s.end(), untraced_s.begin(), untraced_s.end());
  std::vector<double> pass_ms;
  for (const double s : all_s) pass_ms.push_back(s * 1e3);

  std::cout << "pass_ms";
  for (const double ms : pass_ms) std::cout << " " << ms;
  std::cout << "\n";
  report.set("setup_s", perfbench::median(setups), "s",
             "median of " + std::to_string(kSetups) + " set-ups");
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
             "MB");
  report.set("ingest_nodes_per_s", nodes / perfbench::median(all_s), "1/s",
             "median of " + std::to_string(all_s.size()) + " passes");
  report.set("cpg_bytes_per_node",
             static_cast<double>(last.cpg_bytes.size()) / nodes, "B");
  report.set("store_bytes_per_node",
             static_cast<double>(last.store_bytes) / nodes, "B");
  report.set("ops_per_s", static_cast<double>(all_s.size()) / measured, "1/s",
             "ingest passes");
  report.set_percentile("op_p50_ms", perfbench::percentile(pass_ms, 50), "ms");
  report.set_percentile("op_p99_ms", perfbench::percentile(pass_ms, 99), "ms");
  report.set("error_rate",
             static_cast<double>(outcome.failed) /
                 static_cast<double>(std::max<std::uint64_t>(1, outcome.attempted)),
             "ratio");

  if (trace) {
    report_write_layers(report, tracer, last);
    const auto pool_after = obs::Registry::global().snapshot();
    const auto series = [](const obs::MetricsSnapshot& s,
                           const std::string& name) -> const obs::SeriesSnapshot* {
      for (const auto& x : s.series) {
        if (x.name == name) return &x;
      }
      return nullptr;
    };
    const auto* jobs0 = series(pool_before, "task_pool_jobs_total");
    const auto* jobs1 = series(pool_after, "task_pool_jobs_total");
    const auto* wait0 = series(pool_before, "task_pool_submit_wait_us");
    const auto* wait1 = series(pool_after, "task_pool_submit_wait_us");
    const double jobs =
        jobs1 ? static_cast<double>(jobs1->counter_value -
                                    (jobs0 ? jobs0->counter_value : 0))
              : 0;
    double wait_us = 0;
    if (wait1) {
      const double n = static_cast<double>(
          wait1->histogram.count - (wait0 ? wait0->histogram.count : 0));
      const double sum = static_cast<double>(
          wait1->histogram.sum - (wait0 ? wait0->histogram.sum : 0));
      wait_us = n > 0 ? sum / n : 0;
    }
    report.set("util.pool_jobs", jobs / static_cast<double>(all_s.size()),
               "count", "per pass");
    report.set("util.pool_submit_wait_us", wait_us, "us", "mean per job");
    report_self_times(report, tracer.spans(), "per ingest pass");
    const double traced_med = perfbench::median(traced_s);
    const double untraced_med = perfbench::median(untraced_s);
    report.set("trace.overhead_pct",
               untraced_med > 0 ? 100.0 * (traced_med - untraced_med) / untraced_med
                                : 0.0,
               "%", "median traced pass vs median untraced pass");
    if (!tracer.write_json("trace_ingest.json")) {
      std::cout << "note: could not write the span file\n";
    }
  }
  return outcome;
}

// --- serving workloads ---------------------------------------------------

/// A forked inspector_query server, stopped (SIGTERM, then SIGKILL
/// after 10 s) and reaped on destruction.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, std::vector<std::string> args) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // Never outlive the benchmark, even if it is killed.
      prctl(PR_SET_PDEATHSIG, SIGTERM);
      const int log = open("server.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) {
        dup2(log, STDOUT_FILENO);
        dup2(log, STDERR_FILENO);
        close(log);
      }
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

  void stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    for (int i = 0; i < 1000; ++i) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

constexpr const char* kSocket = "q.sock";

std::string worker_socket(int w) {
  return std::string(kSocket) + ".w" + std::to_string(w);
}

/// Send one request line on a fresh connection; the reply or an error.
query::Result<std::string> one_call(const std::string& socket,
                                    const std::string& line) {
  auto client = net::QueryClient::connect(socket);
  if (!client.ok()) return client.status();
  auto reply = (*client)->call(line);
  (void)(*client)->goodbye();
  return reply;
}

struct Sample {
  std::int64_t start_ns = 0;
  std::int64_t latency_ns = 0;
  bool scan = false;
  bool ok = false;       ///< transport delivered a reply
  bool status_ok = false;
  bool warm = false;  ///< sent during the warm-up, so not timed
  std::uint64_t hash = 0;
  std::string line;
  const char* kind = "";
  std::uint32_t anchor = 0;
};

struct ClientRun {
  std::vector<Sample> samples;
  std::uint64_t transport_failures = 0;
  Tracer tracer{false};
};

/// One closed-loop client: send, wait for the reply, send the next,
/// until the deadline. Every request is timed; those sent before
/// `warm_until_ns` are marked warm and left out of the statistics.
void client_loop(const std::string& socket, const cpg::Graph& graph,
                 perfbench::RequestMix mix, std::uint64_t seed,
                 std::int64_t warm_until_ns, std::int64_t deadline_ns,
                 bool trace, ClientRun& out) {
  out.tracer = Tracer(trace);
  auto client = net::QueryClient::connect(socket);
  if (!client.ok()) {
    ++out.transport_failures;
    out.samples.emplace_back();  // the request this client never sent
    return;
  }
  perfbench::RequestGenerator gen(graph.nodes().size(), graph.pages(), mix,
                                  seed);
  for (std::uint64_t id = 1; perfbench::now_ns() < deadline_ns; ++id) {
    perfbench::Request r = gen.next(id);
    Sample s;
    s.scan = r.scan;
    s.kind = r.kind;
    s.anchor = r.anchor;
    // Traced runs trace every other request, so the untraced half
    // measures the overhead of recording.
    const bool traced = trace && id % 2 == 0;
    const std::int32_t span =
        traced ? out.tracer.begin("net.call", id) : -1;
    s.start_ns = perfbench::now_ns();
    s.warm = s.start_ns < warm_until_ns;
    auto reply = (*client)->call(r.line);
    s.latency_ns = perfbench::now_ns() - s.start_ns;
    out.tracer.end(span);
    s.line = std::move(r.line);
    if (!reply.ok()) {
      ++out.transport_failures;
      out.samples.push_back(std::move(s));
      break;
    }
    s.ok = true;
    s.status_ok = reply->find("\"status\":\"ok\"") != std::string::npos;
    s.hash = fnv1a(*reply);
    out.samples.push_back(std::move(s));
  }
  (void)(*client)->goodbye();
}

/// In-process timings of one request, for the per-layer breakdown.
struct Replayed {
  double parse_us = 0, engine_us = 0, serialize_us = 0;
  double reply_bytes = 0, items = 0;
};

/// The byte-identical gate: replay a client's request lines through an
/// in-process, in-memory QueryEngine in a fresh session and compare
/// reply bytes. Returns the number of mismatches.
std::uint64_t replay_reference(query::QueryEngine& engine,
                               const ClientRun& run,
                               std::vector<Replayed>& timings) {
  const auto session = engine.open_session();
  std::uint64_t mismatches = 0;
  timings.resize(run.samples.size());
  for (std::size_t i = 0; i < run.samples.size(); ++i) {
    const Sample& s = run.samples[i];
    if (!s.ok) continue;
    Replayed& t = timings[i];
    std::int64_t t0 = perfbench::now_ns();
    std::uint64_t id = 0;
    auto request = query::wire::parse_request(s.line, &id);
    std::int64_t t1 = perfbench::now_ns();
    std::string reply;
    if (!request.ok()) {
      reply = query::wire::serialize_reply(
          id, query::Result<query::Reply>(request.status()));
    } else {
      query::QueryOptions options;
      options.page_size = request->page_size;
      auto result = engine.run(
          session, std::get<query::Query>(request->op), options);
      const std::int64_t t2 = perfbench::now_ns();
      reply = query::wire::serialize_reply(id, result);
      const std::int64_t t3 = perfbench::now_ns();
      t.engine_us = static_cast<double>(t2 - t1) / 1e3;
      t.serialize_us = static_cast<double>(t3 - t2) / 1e3;
      if (result.ok()) t.items = static_cast<double>(result->total_items);
    }
    t.parse_us = static_cast<double>(t1 - t0) / 1e3;
    t.reply_bytes = static_cast<double>(reply.size());
    if (fnv1a(reply) != s.hash) {
      if (mismatches == 0) {
        std::cout << "FAIL reply mismatch for " << s.line
                  << "\n  expected " << reply.substr(0, 200) << "\n";
      }
      ++mismatches;
    }
  }
  (void)engine.close_session(session);
  return mismatches;
}

struct ServingSetup {
  perfbench::History history;
  PassResult pass;
  std::unique_ptr<ServerProcess> server;
  std::uint64_t shard_budget = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> worker_shards;
};

/// Decoded-byte budget that lets each router worker hold about half
/// of its shard range, and the range each worker serves (the split
/// inspector_query's router uses).
void plan_workers(ServingSetup& setup) {
  const shard::Manifest& m = setup.pass.append.manifest;
  const std::uint32_t count = std::max(1u, m.shard_count);
  double half_ranges = 0;
  setup.worker_shards.clear();
  for (int w = 0; w < kRouterWorkers; ++w) {
    const auto lo = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(count) * w / kRouterWorkers);
    const auto hi = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(count) * (w + 1) / kRouterWorkers);
    setup.worker_shards.emplace_back(lo, hi);
    double range = 0;
    for (std::uint32_t k = lo; k < hi; ++k) {
      range += static_cast<double>(m.shards[k].decoded_bytes);
    }
    half_ranges += range / 2;
  }
  setup.shard_budget =
      static_cast<std::uint64_t>(half_ranges / kRouterWorkers);
}

/// Generate, ingest, write the served artefacts, start the server and
/// wait for its first answer.
void set_up_serving(bool routed, std::uint64_t seed, const std::string& binary,
                    Tracer& tracer, ServingSetup& setup) {
  setup.server.reset();
  setup.history = perfbench::generate_history(kServeNodes, seed);
  setup.pass = ingest_pass(setup.history, "store", tracer);
  write_file("history.cpg", setup.pass.cpg_bytes);
  // The analysis pool is pinned to one thread per serving process: two
  // closed-loop clients keep at most two requests in flight, so at most
  // two busy server threads share the CPUs run.py pins with the clients.
  std::vector<std::string> args;
  if (routed) {
    plan_workers(setup);
    args = {"--store", "store", "--serve", kSocket, "--workers",
            std::to_string(kRouterWorkers), "--shard-budget",
            std::to_string(setup.shard_budget), "--analysis-threads", "1"};
  } else {
    args = {"history.cpg", "--serve", kSocket, "--analysis-threads", "1"};
  }
  setup.server = std::make_unique<ServerProcess>(binary, std::move(args));
  // Poll for the socket at a fine grain: the client's own connect
  // retry backs off in 25 ms steps, which would quantize setup_s.
  for (int i = 0; i < 20000 && !fs::exists(kSocket); ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(250));
  }
  auto reply = one_call(kSocket, "{\"id\":0,\"op\":\"stats\"}");
  if (!reply.ok() || reply->find("\"status\":\"ok\"") == std::string::npos) {
    throw std::runtime_error(
        "server did not answer: " +
        (reply.ok() ? *reply : reply.status().message()));
  }
}

/// Counters from one process's metrics rpc.
struct ServerCounters {
  double cache_hits = 0, cache_misses = 0;
  double frames = 0, bytes = 0;
  double pool_jobs = 0, pool_wait_n = 0, pool_wait_sum = 0;
  double shard_loads = 0, shard_hits = 0, shard_evictions = 0;
  double decode_n = 0, decode_sum = 0;

  void add(const std::string& json) {
    cache_hits += json_number(json, "query_cache_hits_total");
    cache_misses += json_number(json, "query_cache_misses_total");
    frames += json_number(json, "net_frames_sent_total") +
              json_number(json, "net_frames_received_total");
    bytes += json_number(json, "net_bytes_sent_total") +
             json_number(json, "net_bytes_received_total");
    pool_jobs += json_number(json, "task_pool_jobs_total");
    const auto wait = json_histogram(json, "task_pool_submit_wait_us");
    pool_wait_n += wait.first;
    pool_wait_sum += wait.second;
    shard_loads += json_number(json, "shard_store_loads_total");
    shard_hits += json_number(json, "shard_store_hits_total");
    shard_evictions += json_number(json, "shard_store_evictions_total");
    const auto decode = json_histogram(json, "shard_store_decode_us");
    decode_n += decode.first;
    decode_sum += decode.second;
  }
};

/// Median of (router round trip - direct worker round trip) over the
/// same node-anchored requests, each sent warm to both sockets.
double router_hop_us(const std::vector<Sample>& samples,
                     const ServingSetup& setup, std::size_t max_requests) {
  auto router = net::QueryClient::connect(kSocket);
  if (!router.ok()) return 0;
  std::vector<std::unique_ptr<net::QueryClient>> workers;
  for (int w = 0; w < kRouterWorkers; ++w) {
    auto c = net::QueryClient::connect(worker_socket(w));
    if (!c.ok()) return 0;
    workers.push_back(std::move(c).value());
  }
  const shard::Manifest& m = setup.pass.append.manifest;
  std::vector<double> hops;
  for (const Sample& s : samples) {
    if (hops.size() >= max_requests) break;
    if (s.scan || s.anchor == 0xFFFFFFFFu) continue;
    const std::uint32_t shard = m.node_shard[s.anchor];
    int w = 0;
    while (w + 1 < kRouterWorkers && shard >= setup.worker_shards[w].second) ++w;
    auto timed = [&](net::QueryClient& c) -> double {
      (void)c.call(s.line);  // warm: both paths answer from cache
      const std::int64_t t0 = perfbench::now_ns();
      (void)c.call(s.line);
      return static_cast<double>(perfbench::now_ns() - t0) / 1e3;
    };
    const double via_router = timed(**router);
    const double direct = timed(*workers[static_cast<std::size_t>(w)]);
    hops.push_back(via_router - direct);
  }
  (void)(*router)->goodbye();
  for (auto& c : workers) (void)c->goodbye();
  return perfbench::median(hops);
}

/// Everything one serving run measured, for the two reports.
struct ServingRun {
  bool routed = false;
  ServingSetup setup;
  std::vector<double> setup_s;
  std::vector<ClientRun> clients;
  std::vector<std::vector<Replayed>> replayed;  ///< per client, per sample
  std::int64_t start_ns = 0;
  double elapsed_s = 0;
  double rss_mb = 0;
  ServerCounters front;    ///< the process the clients talk to
  ServerCounters workers;  ///< router workers (routed only)
  double router_hop_us = 0;
};

/// End-to-end report lines; fills `outcome`'s counts.
void report_serving(const ServingRun& r, Report& report, Outcome& outcome) {
  std::vector<double> point_ms, scan_ms, all_ms;
  std::map<std::string, std::vector<double>> kind_ms;
  // Replies completed per second of the run, to show drift.
  std::vector<int> per_second(static_cast<std::size_t>(r.elapsed_s) + 1, 0);
  std::uint64_t non_ok = 0, transport = 0;
  for (const ClientRun& run : r.clients) {
    transport += run.transport_failures;
    for (const Sample& s : run.samples) {
      ++outcome.attempted;
      if (!s.ok) continue;
      if (!s.status_ok) ++non_ok;
      if (s.warm) continue;
      const double ms = static_cast<double>(s.latency_ns) / 1e6;
      all_ms.push_back(ms);
      (s.scan ? scan_ms : point_ms).push_back(ms);
      kind_ms[s.kind].push_back(ms);
      const auto at = static_cast<std::size_t>(
          static_cast<double>(s.start_ns + s.latency_ns - r.start_ns) / 1e9);
      if (at < per_second.size()) ++per_second[at];
    }
  }
  outcome.failed = non_ok + transport;
  std::cout << "replies_per_second";
  for (const int n : per_second) std::cout << " " << n;
  std::cout << "\n";
  for (const auto& [kind, ms] : kind_ms) {
    std::cout << "kind " << kind << " p50_ms "
              << perfbench::percentile(ms, 50).value << " samples "
              << ms.size() << "\n";
  }

  report.set("setup_s", perfbench::median(r.setup_s), "s",
             "median of " + std::to_string(kSetups) + " set-ups");
  report.set("peak_rss_mb", r.rss_mb, "MB",
             r.routed ? "router + workers" : "server");
  const PassResult& pass = r.setup.pass;
  const double nodes = static_cast<double>(r.setup.history.node_count);
  report.set("cpg_bytes_per_node",
             static_cast<double>(pass.cpg_bytes.size()) / nodes, "B");
  report.set("store_bytes_per_node",
             static_cast<double>(pass.store_bytes) / nodes, "B");
  const double qps = static_cast<double>(all_ms.size()) / r.elapsed_s;
  report.set("ops_per_s", qps, "1/s",
             "replies, " + std::to_string(kClients) + " closed-loop clients");
  report.set_percentile("op_p50_ms", perfbench::percentile(all_ms, 50), "ms");
  report.set_percentile("op_p99_ms", perfbench::percentile(all_ms, 99), "ms");
  report.set("qps", qps, "1/s");
  report.set_percentile("point_p50_ms", perfbench::percentile(point_ms, 50),
                        "ms");
  report.set_percentile("point_p99_ms", perfbench::percentile(point_ms, 99),
                        "ms");
  if (r.routed) {
    report.set_percentile("scan_p50_ms", perfbench::percentile(scan_ms, 50),
                          "ms");
  }
  report.set("error_rate",
             static_cast<double>(outcome.failed) /
                 static_cast<double>(std::max<std::uint64_t>(1, outcome.attempted)),
             "ratio", std::to_string(outcome.failed) + " of " +
                          std::to_string(outcome.attempted));
}

/// The shard penalty: client 0's requests, in order, through an
/// in-process ShardedQueryEngine at the workers' budget, for a 2 s
/// prefix of the stream. Per sample microseconds (-1 = not replayed),
/// plus the store's peak resident bytes.
std::pair<std::vector<double>, double> replay_sharded(const ServingRun& r) {
  const std::vector<Sample>& samples = r.clients[0].samples;
  std::vector<double> us(samples.size(), -1.0);
  shard::StoreOptions options;
  options.memory_budget_bytes = r.setup.shard_budget;
  auto store = shard::ShardStore::open("store", options);
  if (!store.ok()) throw std::runtime_error(store.status().message());
  shard::ShardedQueryEngine engine(*store);
  const std::int64_t stop = perfbench::now_ns() + 2'000'000'000LL;
  for (std::size_t i = 0; i < samples.size() && perfbench::now_ns() < stop;
       ++i) {
    if (samples[i].warm) continue;
    auto request = query::wire::parse_request(samples[i].line);
    if (!request.ok()) continue;
    const std::int64_t t0 = perfbench::now_ns();
    (void)engine.run(std::get<query::Query>(request->op));
    us[i] = static_cast<double>(perfbench::now_ns() - t0) / 1e3;
  }
  return {std::move(us),
          static_cast<double>((*store)->stats().peak_resident_bytes)};
}

/// Per-layer report lines of a traced serving run.
void report_serving_layers(const ServingRun& r, Tracer& tracer,
                           Report& report) {
  report_write_layers(report, tracer, r.setup.pass);
  std::vector<double> shard_engine_us;
  double peak_resident = 0;
  if (r.routed) std::tie(shard_engine_us, peak_resident) = replay_sharded(r);

  std::vector<double> parse_us, serialize_us, reply_bytes, items, call_us,
      transport_us;
  std::map<std::string, std::vector<double>> engine_us, shard_us;
  /// Per kind: untraced and traced round trips, in ms.
  std::map<std::string, std::array<std::vector<double>, 2>> call_ms;
  /// Per kind: engine, parse + serialize, and transport microseconds.
  std::map<std::string, std::array<std::vector<double>, 3>> kind_parts;
  // Round trips whose in-process parse/engine/serialize times are known,
  // with those times attached as child spans: the remainder -- the net
  // layer's self time -- is the transport (and, routed, the router hop).
  Tracer requests(true);
  for (std::size_t c = 0; c < r.clients.size(); ++c) {
    const ClientRun& run = r.clients[c];
    const auto& t = r.replayed[c];
    const auto& spans = run.tracer.spans();
    std::size_t span = 0;
    for (std::size_t i = 0; i < run.samples.size(); ++i) {
      const Sample& s = run.samples[i];
      if (!s.ok || s.warm) continue;
      const double call = static_cast<double>(s.latency_ns) / 1e3;
      parse_us.push_back(t[i].parse_us);
      serialize_us.push_back(t[i].serialize_us);
      reply_bytes.push_back(t[i].reply_bytes);
      items.push_back(t[i].items);
      engine_us[s.kind].push_back(t[i].engine_us);
      double backend_us = t[i].engine_us;
      if (r.routed) {
        backend_us = c == 0 ? shard_engine_us[i] : -1.0;
        if (backend_us >= 0) shard_us[s.kind].push_back(backend_us);
      }
      const bool traced = (i + 1) % 2 == 0;  // see client_loop
      call_ms[s.kind][traced ? 1 : 0].push_back(call / 1e3);
      if (!traced || backend_us < 0) continue;
      call_us.push_back(call);
      transport_us.push_back(call - t[i].parse_us - backend_us -
                             t[i].serialize_us);
      auto& parts = kind_parts[s.kind];
      parts[0].push_back(backend_us);
      parts[1].push_back(t[i].parse_us + t[i].serialize_us);
      parts[2].push_back(transport_us.back());
      while (span < spans.size() && spans[span].request != i + 1) ++span;
      if (span == spans.size()) break;
      const std::int32_t parent =
          requests.add(spans[span].name, spans[span].start_ns,
                       spans[span].end_ns, -1, i + 1);
      std::int64_t at = spans[span].start_ns;
      for (const auto& [name, us] :
           {std::pair{"query.parse", t[i].parse_us},
            std::pair{r.routed ? "shard.engine" : "query.engine", backend_us},
            std::pair{"query.serialize", t[i].serialize_us}}) {
        const auto ns = static_cast<std::int64_t>(us * 1e3);
        requests.add(name, at, at + ns, parent, i + 1);
        at += ns;
      }
    }
  }
  // The layer that dominates each query class: median in-process
  // engine time (query in memory, shard out of core) against the
  // median parse + serialize time and the median transport time.
  for (const auto& [kind, parts] : kind_parts) {
    const double engine = perfbench::median(parts[0]);
    const double wire = perfbench::median(parts[1]);
    const double net = perfbench::median(parts[2]);
    const char* layer = engine >= wire && engine >= net
                            ? (r.routed ? "shard" : "query")
                        : wire >= net ? "query"
                                      : "net";
    std::cout << "dominant_layer " << kind << " " << layer << " (engine "
              << engine << " us, parse+serialize " << wire
              << " us, transport " << net << " us)\n";
  }
  report.set("query.parse_us", perfbench::median(parse_us), "us", "median");
  report.set("query.serialize_us", perfbench::median(serialize_us), "us",
             "median");
  report.set("query.reply_bytes", perfbench::mean(reply_bytes), "B", "mean");
  report.set("query.items_per_reply", perfbench::mean(items), "count", "mean");
  for (const char* kind : kAllKinds) {
    const auto q = engine_us.find(kind);
    report.set(std::string("query.engine_us.") + kind,
               q == engine_us.end() ? 0.0 : perfbench::median(q->second), "us",
               "in-process in-memory engine, median");
    const auto s = shard_us.find(kind);
    report.set(std::string("shard.engine_us.") + kind,
               s == shard_us.end() ? 0.0 : perfbench::median(s->second), "us",
               "in-process sharded engine at the worker budget, median");
  }
  const ServerCounters& engines = r.routed ? r.workers : r.front;
  const double lookups = engines.cache_hits + engines.cache_misses;
  report.set("query.cache_hit_ratio",
             lookups > 0 ? engines.cache_hits / lookups : 0.0, "ratio",
             r.routed ? "workers" : "server");
  const double calls = std::max<double>(1.0, static_cast<double>(parse_us.size()));
  report.set("net.call_us", perfbench::median(call_us), "us", "median");
  report.set("net.transport_us", perfbench::median(transport_us), "us",
             "median of call - parse - engine - serialize");
  report.set("net.frames_per_call", r.front.frames / calls, "count",
             "front process");
  report.set("net.bytes_per_call", r.front.bytes / calls, "B",
             "front process");
  report.set("net.router_hop_us", r.router_hop_us, "us",
             r.routed ? "median router - direct worker" : "no router");
  report.set("util.pool_jobs", engines.pool_jobs / calls, "count", "per call");
  report.set("util.pool_submit_wait_us",
             engines.pool_wait_n > 0 ? engines.pool_wait_sum / engines.pool_wait_n
                                     : 0.0,
             "us", "mean per job");
  const double shard_lookups = r.workers.shard_loads + r.workers.shard_hits;
  report.set("shard.loads_per_query", r.workers.shard_loads / calls, "count");
  report.set("shard.hit_ratio",
             shard_lookups > 0 ? r.workers.shard_hits / shard_lookups : 0.0,
             "ratio");
  report.set("shard.evictions", r.workers.shard_evictions, "count");
  report.set("shard.decode_us",
             r.workers.decode_n > 0 ? r.workers.decode_sum / r.workers.decode_n
                                    : 0.0,
             "us", "mean per load");
  report.set("shard.peak_resident_bytes", peak_resident, "B",
             "in-process replay");
  report.set("shard.budget_bytes", static_cast<double>(r.setup.shard_budget),
             "B");

  report_self_times(report, requests.spans(), "per attributed request");
  // Kinds differ in cost by orders of magnitude, so compare traced and
  // untraced requests kind by kind and take the median of the shifts.
  std::vector<double> shifts;
  for (const auto& [kind, by_trace] : call_ms) {
    if (by_trace[0].size() < 20 || by_trace[1].size() < 20) continue;
    const double untraced = perfbench::median(by_trace[0]);
    shifts.push_back(100.0 * (perfbench::median(by_trace[1]) - untraced) /
                     untraced);
  }
  report.set("trace.overhead_pct", perfbench::median(shifts), "%",
             "median over kinds of traced vs untraced median round trip");
  tracer.merge(requests);
  if (!tracer.write_json(r.routed ? "trace_mixed_routed.json"
                                  : "trace_point_inmem.json")) {
    std::cout << "note: could not write the span file\n";
  }
}

Outcome run_serving(bool routed, std::uint64_t seed, double seconds,
                    bool trace, const std::string& binary, Report& report) {
  // This process's own pool serves set-up ingest and the reference
  // replays, which run while the server is idle.
  util::set_analysis_threads(2);
  Tracer tracer(trace);
  ServingRun r;
  r.routed = routed;
  ServingSetup& setup = r.setup;
  std::vector<double> pass_s;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t start = perfbench::now_ns();
    set_up_serving(routed, seed, binary, tracer, setup);
    r.setup_s.push_back(seconds_since(start));
    pass_s.push_back(setup.pass.seconds);
  }
  Outcome outcome;
  for (const std::string& f : check_pass(setup.pass, setup.history, "store")) {
    std::cout << "FAIL " << f << "\n";
    outcome.correct = false;
  }
  const cpg::Graph& graph = *setup.pass.graph;
  report_history(setup.history, graph);
  report.set("ingest_nodes_per_s",
             static_cast<double>(setup.history.node_count) /
                 perfbench::median(pass_s),
             "1/s", "set-up ingest passes");
  if (routed) {
    std::cout << "router workers=" << kRouterWorkers
              << " shard_budget_bytes=" << setup.shard_budget << "\n";
  }

  const perfbench::RequestMix mix{.zipf_anchors = !routed,
                                  .scan_one_in = routed ? kScanOneIn : 0,
                                  .slices = !routed};
  // The timed window opens after the warm-up.
  r.start_ns = perfbench::now_ns() +
               static_cast<std::int64_t>(kWarmupSeconds * 1e9);
  const std::int64_t deadline =
      r.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  r.clients.resize(kClients);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < r.clients.size(); ++c) {
      threads.emplace_back([&, c] {
        client_loop(kSocket, graph, mix, seed * 1000003ULL + 17 * (c + 1),
                    r.start_ns, deadline, trace, r.clients[c]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  r.elapsed_s = seconds_since(r.start_ns);

  // Server-side state, read before the server stops.
  r.rss_mb = peak_rss_mb_of(setup.server->pid());
  if (auto m = one_call(kSocket, "{\"id\":0,\"op\":\"metrics\"}"); m.ok()) {
    r.front.add(*m);
  }
  if (routed) {
    for (pid_t child : children_of(setup.server->pid())) {
      r.rss_mb += peak_rss_mb_of(child);
    }
    for (int w = 0; w < kRouterWorkers; ++w) {
      if (auto m = one_call(worker_socket(w), "{\"id\":0,\"op\":\"metrics\"}");
          m.ok()) {
        r.workers.add(*m);
      }
    }
    if (trace) r.router_hop_us = router_hop_us(r.clients[0].samples, setup, 200);
  }
  setup.server->stop();

  // Correctness: every client's replies against the in-memory engine.
  // Same cache size as the server's, so the in-process engine times
  // (query.engine_us.*) see about the server's hit ratio.
  query::QueryEngine reference(setup.pass.graph);
  r.replayed.resize(r.clients.size());
  std::atomic<std::uint64_t> mismatches{0};
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < r.clients.size(); ++c) {
      threads.emplace_back([&, c] {
        mismatches += replay_reference(reference, r.clients[c], r.replayed[c]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  if (mismatches > 0) {
    std::cout << "FAIL " << mismatches << " reply(ies) differ from the "
              << "in-process engine\n";
    outcome.correct = false;
  }
  report_serving(r, report, outcome);
  if (trace) report_serving_layers(r, tracer, report);
  return outcome;
}

// --- main ----------------------------------------------------------------

int usage() {
  std::cerr << "usage: perfbench --workload ingest|point_inmem|"
               "mixed_routed --seed N --seconds S --trace 0|1 "
               "--server PATH --work DIR --metrics NAME:UNIT[,NAME:UNIT...]\n";
  return 2;
}

std::vector<std::string> split(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream in(s);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const char* key : {"--workload", "--seed", "--seconds", "--trace",
                          "--server", "--work", "--metrics"}) {
    if (!args.contains(key)) return usage();
  }
  const std::string workload = args["--workload"];
  const bool trace = args["--trace"] == "1";
  std::uint64_t seed = 0;
  double seconds = 0;
  try {
    seed = std::stoull(args["--seed"]);
    seconds = std::stod(args["--seconds"]);
  } catch (const std::exception&) {
    return usage();
  }
  if (seconds <= 0) return usage();
  // NAME:UNIT pairs, as BENCHMARK.json declares them.
  std::vector<std::pair<std::string, std::string>> gate;
  for (const std::string& item : split(args["--metrics"])) {
    const std::size_t colon = item.rfind(':');
    if (colon == std::string::npos) return usage();
    gate.emplace_back(item.substr(0, colon), item.substr(colon + 1));
  }
  const std::string binary = fs::absolute(args["--server"]).string();
  fs::create_directories(args["--work"]);
  fs::current_path(args["--work"]);
  // A server that dies mid-run must not kill this process on a write.
  signal(SIGPIPE, SIG_IGN);

  Report report;
  Outcome outcome;
  try {
    if (workload == "ingest") {
      outcome = run_ingest(seed, seconds, trace, report);
    } else if (workload == "point_inmem" || workload == "mixed_routed") {
      outcome = run_serving(workload == "mixed_routed", seed, seconds, trace,
                            binary, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cout << "FAIL " << e.what() << "\n";
    return 1;
  }

  std::string metrics;
  for (const auto& [name, unit] : gate) {
    auto m = report.get(name);
    if (!m && trace) {
      // A per-layer metric of a layer this workload never enters.
      report.set(name, 0, unit, "layer not used by " + workload);
      m = report.get(name);
    }
    if (!m) {
      std::cout << "FAIL metric " << name << " was not measured\n";
      return 1;
    }
    if (m->unit != unit) {
      std::cout << "FAIL metric " << name << " measured in " << m->unit
                << ", declared in " << unit << "\n";
      return 1;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + Report::format(m->value) +
               ", \"unit\": \"" + m->unit + "\"}";
  }
  std::cout << "{\"correct\": " << (outcome.correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return outcome.correct ? 0 : 1;
}
