// The three workloads. Each drives libflipper through its public API in
// the order `flipper_cli mine --input` and `flipper_cli serve` call it:
//
//   mine_medline          Open -> LevelViews::Build -> FlipperMiner::Run
//                         -> TopK + RenderPatterns, one solo mine at a
//                         time at nproc threads;
//   serve_quest_uncached  an in-process service::Server holding quest,
//                         nproc closed-loop connections cycling distinct
//                         configs with `cache off`;
//   serve_hot_refresh     the server holds quest and census, nproc - 1
//                         readers send Zipf repeats (mostly cache hits)
//                         and one writer republishes quest every
//                         kRepublishEvery reader requests.
//
// Every body is compared byte for byte with the prepared oracle of the
// store version its `fingerprint` meta names; a mismatch exits 1.

#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "common/thread_pool.h"
#include "core/flipper_miner.h"
#include "core/level_views.h"
#include "core/pipeline_metrics.h"
#include "service/client.h"
#include "service/server.h"
#include "storage/store_reader.h"
#include "storage/store_writer.h"

namespace e2ebench {
namespace {

using flipper::MetricsRegistry;
using flipper::service::Client;
using flipper::service::MineRequest;
using flipper::service::Request;
using flipper::service::Server;
using flipper::storage::StoreReader;

/// Set-up repetitions per run (setup_s is their median); the traced
/// run's solo open + build pass repeats as often.
constexpr int kSetupReps = 9;
/// Reader requests between two republishes (a count, never a timer).
constexpr int64_t kRepublishEvery = 20000;
constexpr double kZipfExponent = 1.1;
/// Time windows a loop's latency percentiles are medians over.
constexpr int kWindows = 5;
/// Uncached queries of the served probe on a workload that does not serve.
constexpr int kProbeQueries = 5;
/// A republish that no answer reflects within this long is a failure.
constexpr int64_t kRefreshLimitNs = 60'000'000'000;

// --- Prepared inputs ----------------------------------------------------

struct Prepared {
  std::vector<std::vector<std::string>> oracle;  // [version][config]
  std::vector<MinerCounts> counts;               // [config], version 0
  std::vector<std::vector<StoreReader>> sources;  // [store][version]
};

Prepared LoadPrepared(const WorkloadSpec& spec, const std::string& dir) {
  Prepared p;
  int versions = 1;
  for (const StoreSpec& store : spec.stores) {
    versions = std::max(versions, store.versions);
  }
  p.oracle.assign(static_cast<size_t>(versions),
                  std::vector<std::string>(spec.configs.size()));
  for (size_t c = 0; c < spec.configs.size(); ++c) {
    const StoreSpec& store = spec.stores[static_cast<size_t>(
        spec.StoreIndex(spec.configs[c].store))];
    for (int v = 0; v < store.versions; ++v) {
      p.oracle[static_cast<size_t>(v)][c] =
          ReadFileOrDie(OraclePath(dir, v, static_cast<int>(c)));
    }
  }
  p.counts.resize(spec.configs.size());
  std::istringstream lines(ReadFileOrDie(CountersPath(dir)));
  std::string line;
  while (std::getline(lines, line)) {
    const size_t space = line.find(' ');
    const size_t c = std::stoul(line.substr(1, space - 1));
    if (c >= p.counts.size()) Fail("bad counters line '" + line + "'");
    p.counts[c] = Must(MinerCounts::Parse(line.substr(space + 1)), "counters");
  }
  for (const StoreSpec& store : spec.stores) {
    p.sources.emplace_back();
    for (int v = 0; v < store.versions; ++v) {
      const std::string path = SourceStorePath(dir, store.name, v);
      p.sources.back().push_back(
          Must(StoreReader::Open(path), "open " + path));
    }
  }
  return p;
}

std::string LivePath(const RunOptions& options, const std::string& store) {
  return options.live_dir + "/" + store + ".fdb";
}

void WriteStore(const StoreReader& source, const std::string& path) {
  Must(flipper::storage::WriteStoreFile(path, source.db(), source.dict(),
                                        source.taxonomy()),
       "write " + path);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

// --- Loop statistics ------------------------------------------------------

struct LoopStats {
  std::vector<double> latency_ms;    // one per successful op
  std::vector<int64_t> done_ns;      // completion time of each of those
  std::vector<double> server_ms;     // served: response meta latency_ms
  std::vector<double> transport_ms;  // served: client minus server time
  std::vector<double> refresh_ms;
  std::vector<double> refresh_first_query_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  void Record(double ms, int64_t done) {
    latency_ms.push_back(ms);
    done_ns.push_back(done);
  }
  void Merge(const LoopStats& other) {
    const auto append = [](auto* to, const auto& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&latency_ms, other.latency_ms);
    append(&done_ns, other.done_ns);
    append(&server_ms, other.server_ms);
    append(&transport_ms, other.transport_ms);
    append(&refresh_ms, other.refresh_ms);
    append(&refresh_first_query_ms, other.refresh_first_query_ms);
    attempted += other.attempted;
    failed += other.failed;
    end_ns = std::max(end_ns, other.end_ns);
  }
};

/// Successful ops per second over the whole loop.
double Throughput(const LoopStats& loop) {
  return static_cast<double>(loop.latency_ms.size()) /
         (static_cast<double>(loop.end_ns - loop.start_ns) / 1e9);
}

/// The `q` latency percentile of a loop: the median over kWindows equal
/// time windows of each window's percentile, so a burst of host CPU
/// steal shorter than a couple of windows does not move it.
double WindowedPercentile(const LoopStats& loop, double q) {
  std::vector<std::vector<double>> windows(kWindows);
  const double width =
      static_cast<double>(loop.end_ns - loop.start_ns) / kWindows;
  for (size_t i = 0; i < loop.latency_ms.size(); ++i) {
    const auto w = static_cast<size_t>(
        static_cast<double>(loop.done_ns[i] - loop.start_ns) / width);
    windows[std::min(w, windows.size() - 1)].push_back(loop.latency_ms[i]);
  }
  std::vector<double> per_window;
  for (const std::vector<double>& window : windows) {
    per_window.push_back(Percentile(window, q));
  }
  return Median(per_window);
}

/// The report line of one measured loop: every end-to-end figure by
/// name, including those the result line does not carry (p99 where the
/// loop has >= 1000 samples, failed_frac, refresh_p50_ms).
std::string Summary(const std::string& phase, const LoopStats& loop) {
  std::ostringstream line;
  line << "# " << phase << ": samples=" << loop.latency_ms.size()
       << " latency_p50_ms=" << WindowedPercentile(loop, 0.5)
       << " latency_p90_ms=" << WindowedPercentile(loop, 0.9);
  if (loop.latency_ms.size() >= 1000) {
    line << " latency_p99_ms=" << Percentile(loop.latency_ms, 0.99);
  }
  line << " throughput_ops_s=" << Throughput(loop) << " failed_frac="
       << static_cast<double>(loop.failed) /
              static_cast<double>(std::max<int64_t>(1, loop.attempted))
       << " (" << loop.failed << "/" << loop.attempted << ")";
  if (!loop.refresh_ms.empty()) {
    line << " refresh_p50_ms=" << Percentile(loop.refresh_ms, 0.5)
         << " refreshes=" << loop.refresh_ms.size();
  }
  return line.str();
}

/// `peak_rss_mb` is read after set-up and warm-up, before the timed loop:
/// later, the peak depends on how the concurrent queries' allocations
/// happen to overlap (61-155 MB across runs of serve_quest_uncached).
void SetEndToEnd(const LoopStats& loop, const std::vector<double>& setup_s,
                 double peak_rss_mb, double store_bytes, RunResult* out) {
  out->attempted = loop.attempted;
  out->failed = loop.failed;
  out->metrics["setup_s"] = {Median(setup_s), "s"};
  out->metrics["latency_p50_ms"] = {WindowedPercentile(loop, 0.5), "ms"};
  out->metrics["latency_p90_ms"] = {WindowedPercentile(loop, 0.9), "ms"};
  out->metrics["throughput_ops_s"] = {Throughput(loop), "1/s"};
  out->metrics["peak_rss_mb"] = {peak_rss_mb, "MB"};
  out->metrics["store_mb"] = {store_bytes / 1e6, "MB"};
}

// --- Per-layer figures ----------------------------------------------------

/// What the traced run gathers besides spans.
struct LayerFigures {
  MinerCounts counts;
  std::vector<double> count_wait_ms;
  std::vector<double> pool_utilization;
  double bytes_per_item = 0;
  std::map<std::string, double> server_stats;  // from the `stats` verb
};

/// Median self time (ms) of `layer`'s spans on the primary store.
double LayerMs(const std::vector<const SpanLog*>& logs, Layer layer) {
  std::vector<double> self_ms;
  for (const SpanLog* log : logs) {
    const std::vector<int64_t> self = log->SelfNs();
    for (size_t i = 0; i < self.size(); ++i) {
      const Span& span = log->spans()[i];
      if (span.layer == layer && span.tag == 0) {
        self_ms.push_back(NsToMs(self[i]));
      }
    }
  }
  return Median(self_ms);
}

/// Smallest share of a `layer` span covered by its children.
double MinChildCoverage(const std::vector<const SpanLog*>& logs, Layer layer) {
  double coverage = 0;
  bool any = false;
  for (const SpanLog* log : logs) {
    const std::vector<int64_t> self = log->SelfNs();
    for (size_t i = 0; i < self.size(); ++i) {
      const Span& span = log->spans()[i];
      if (span.layer != layer) continue;
      const double share =
          1.0 - static_cast<double>(self[i]) /
                    static_cast<double>(span.end_ns - span.start_ns);
      coverage = any ? std::min(coverage, share) : share;
      any = true;
    }
  }
  return coverage;
}

void WriteSpans(const std::vector<const SpanLog*>& logs,
                const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  out << "log\tlayer\ttag\tparent\tstart_ns\tend_ns\n";
  for (size_t l = 0; l < logs.size(); ++l) {
    for (const Span& span : logs[l]->spans()) {
      out << l << '\t' << LayerName(span.layer) << '\t' << span.tag << '\t'
          << span.parent << '\t' << span.start_ns << '\t' << span.end_ns
          << '\n';
    }
  }
  out.flush();
  if (!out) Fail("cannot write " + path);
}

/// `served` holds the answers the server figures come from: the traced
/// loop's, or a served probe's on a workload whose loop does not serve.
void SetPerLayer(const std::vector<const SpanLog*>& logs,
                 const LayerFigures& figures, const LoopStats& untraced,
                 const LoopStats& traced, const LoopStats& served, Layer root,
                 RunResult* out) {
  out->attempted = untraced.attempted + traced.attempted;
  out->failed = untraced.failed + traced.failed;
  auto& m = out->metrics;
  m["storage.open_ms"] = {LayerMs(logs, Layer::kOpen), "ms"};
  m["storage.write_ms"] = {LayerMs(logs, Layer::kWrite), "ms"};
  m["storage.bytes_per_item"] = {figures.bytes_per_item, "B/item"};
  m["views.build_ms"] = {LayerMs(logs, Layer::kBuild), "ms"};
  m["miner.run_ms"] = {LayerMs(logs, Layer::kRun), "ms"};
  m["miner.count_wait_ms"] = {Median(figures.count_wait_ms), "ms"};
  m["miner.pool_utilization"] = {Median(figures.pool_utilization), "ratio"};
  const MinerCounts& c = figures.counts;
  m["miner.candidates_counted"] = {static_cast<double>(c.candidates_counted),
                                   "count"};
  m["miner.db_scans"] = {static_cast<double>(c.db_scans), "count"};
  m["miner.txns_prefiltered"] = {static_cast<double>(c.txns_prefiltered),
                                 "count"};
  m["miner.segments_skipped"] = {static_cast<double>(c.segments_skipped),
                                 "count"};
  m["miner.useful_ratio"] = {
      c.candidates_counted == 0
          ? 0.0
          : static_cast<double>(c.labelled) /
                static_cast<double>(c.candidates_counted),
      "ratio"};
  m["render.ms"] = {LayerMs(logs, Layer::kRender), "ms"};
  m["server.query_p50_ms"] = {Percentile(served.server_ms, 0.5), "ms"};
  m["server.query_p99_ms"] = {Percentile(served.server_ms, 0.99), "ms"};
  m["server.transport_p50_ms"] = {Percentile(served.transport_ms, 0.5), "ms"};
  const auto stat = [&figures](const std::string& name) {
    const auto it = figures.server_stats.find(name);
    return it == figures.server_stats.end() ? 0.0 : it->second;
  };
  const double lookups = stat("cache.hits") + stat("cache.misses");
  m["cache.hit_ratio"] = {lookups == 0 ? 0.0 : stat("cache.hits") / lookups,
                          "ratio"};
  m["cache.evictions"] = {stat("cache.evictions"), "count"};
  m["scheduler.rejected"] = {stat("scheduler.rejected"), "count"};
  m["scheduler.timed_out"] = {stat("scheduler.timed_out"), "count"};
  m["refresh.first_query_ms"] = {
      Percentile(served.refresh_first_query_ms, 0.5), "ms"};
  const double untraced_p50 = WindowedPercentile(untraced, 0.5);
  m["trace.overhead_pct"] = {
      100.0 * (WindowedPercentile(traced, 0.5) - untraced_p50) /
          untraced_p50,
      "%"};
  m["trace.child_coverage"] = {MinChildCoverage(logs, root), "ratio"};
}

// --- Serving ------------------------------------------------------------

/// Maps response fingerprints to store versions. A fingerprint nobody has
/// seen belongs to the republish in flight (the writer starts the next
/// one only after an answer on this one arrived), or to version 0 before
/// the store's first answer; anything else fails the run.
class VersionBook {
 public:
  explicit VersionBook(size_t num_stores) : known_(num_stores) {}

  /// Per-thread memo of the last fingerprint seen per store.
  using Memo = std::vector<std::pair<std::string, int>>;

  int Resolve(int store, const std::string& fingerprint, double server_ms,
              Memo* memo) {
    auto& last = (*memo)[static_cast<size_t>(store)];
    if (!last.first.empty() && last.first == fingerprint) return last.second;
    std::lock_guard<std::mutex> lock(mu_);
    auto& versions = known_[static_cast<size_t>(store)];
    auto it = versions.find(fingerprint);
    if (it == versions.end()) {
      int version = 0;
      if (pending_store_ == store) {
        version = pending_version_;
        pending_store_ = -1;
        seen_ns_ = NowNs();
        first_query_ms_ = server_ms;
      } else if (!versions.empty()) {
        Fail("response fingerprint " + fingerprint +
             " names no published store version");
      }
      it = versions.emplace(fingerprint, version).first;
    }
    last = {fingerprint, it->second};
    return it->second;
  }

  /// Called right before the republished store is written.
  void BeginRepublish(int store, int version) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_store_ = store;
    pending_version_ = version;
    begin_ns_ = NowNs();
  }

  /// Once an answer on the republished version has arrived: the time
  /// from BeginRepublish to that answer and its server latency.
  std::optional<std::pair<double, double>> Refreshed() {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_store_ >= 0) return std::nullopt;
    return std::make_pair(NsToMs(seen_ns_ - begin_ns_), first_query_ms_);
  }

 private:
  std::mutex mu_;
  std::vector<std::map<std::string, int>> known_;
  int pending_store_ = -1;
  int pending_version_ = 0;
  int64_t begin_ns_ = 0;
  int64_t seen_ns_ = 0;
  double first_query_ms_ = 0;
};

struct Served {
  Served(const WorkloadSpec& spec, const RunOptions& options, Prepared& p,
         bool cache)
      : spec(spec), options(options), p(p), book(spec.stores.size()) {
    for (const QueryConfig& config : spec.configs) {
      Request request;
      request.verb = "mine";
      request.params = {{"store", config.store},
                        {"cache", cache ? "on" : "off"},
                        {"threads", std::to_string(spec.query_threads)}};
      request.params.insert(request.params.end(), config.options.begin(),
                            config.options.end());
      requests.push_back(std::move(request));
      store_of.push_back(spec.StoreIndex(config.store));
    }
  }

  const WorkloadSpec& spec;
  const RunOptions& options;
  Prepared& p;
  std::vector<Request> requests;  // per config
  std::vector<int> store_of;      // per config
  VersionBook book;
};

std::string SocketPath(const RunOptions& options) {
  return options.live_dir + "/server.sock";
}

/// A daemon holding the workload's stores, as `flipper_cli serve` runs.
std::unique_ptr<Server> StartServer(const WorkloadSpec& spec,
                                    const RunOptions& options) {
  flipper::service::ServerOptions server_options;
  server_options.socket_path = SocketPath(options);
  auto server = std::make_unique<Server>(server_options);
  for (const StoreSpec& store : spec.stores) {
    Must(server->AddStore(store.name, LivePath(options, store.name)),
         "AddStore " + store.name);
  }
  Must(server->Start(), "Server::Start");
  return server;
}

/// One closed-loop request: times it, byte-checks the body against the
/// oracle of the version its fingerprint names, records the figures.
void Query(Served& s, Client* client, int config, LoopStats* stats,
           SpanLog* log, VersionBook::Memo* memo, int parent = -1) {
  const int store = s.store_of[static_cast<size_t>(config)];
  const int span = log->Begin(Layer::kCall, store, parent);
  const int64_t start = NowNs();
  auto reply = client->Call(s.requests[static_cast<size_t>(config)]);
  const int64_t end = NowNs();
  log->End(span);
  ++stats->attempted;
  if (!reply.ok()) Fail("transport: " + reply.status().ToString());
  if (!reply->ok) {
    ++stats->failed;
    return;
  }
  const double client_ms = NsToMs(end - start);
  const double server_ms =
      std::strtod(reply->Meta("latency_ms").c_str(), nullptr);
  stats->Record(client_ms, end);
  stats->server_ms.push_back(server_ms);
  stats->transport_ms.push_back(client_ms - server_ms);
  const int version =
      s.book.Resolve(store, reply->Meta("fingerprint"), server_ms, memo);
  if (reply->body != s.p.oracle[static_cast<size_t>(version)]
                               [static_cast<size_t>(config)]) {
    Fail("served body differs from the oracle of store version " +
         std::to_string(version) + " on " +
         s.spec.configs[static_cast<size_t>(config)].Describe());
  }
}

/// Republishes the primary store with `version`'s data, then queries
/// `config` until an answer on the new version has arrived (on this or
/// any other connection).
void Republish(Served& s, Client* client, int version, int config,
               LoopStats* stats, SpanLog* log, VersionBook::Memo* memo) {
  SpanScope refresh(log, Layer::kRefresh, 0);
  s.book.BeginRepublish(0, version);
  {
    SpanScope write(log, Layer::kWrite, 0, refresh.index());
    WriteStore(s.p.sources[0][static_cast<size_t>(version)],
               LivePath(s.options, s.spec.stores[0].name));
  }
  const int64_t limit = NowNs() + kRefreshLimitNs;
  std::optional<std::pair<double, double>> refreshed;
  while (!(refreshed = s.book.Refreshed())) {
    if (NowNs() > limit) Fail("no answer reflects a republished store");
    Query(s, client, config, stats, log, memo, refresh.index());
  }
  stats->refresh_ms.push_back(refreshed->first);
  stats->refresh_first_query_ms.push_back(refreshed->second);
}

/// The `stats` verb's counters and gauges.
std::map<std::string, double> ServerStats(Client* client) {
  Request request;
  request.verb = "stats";
  const auto reply = Must(client->Call(request), "stats");
  if (!reply.ok) Fail("stats: " + reply.error);
  std::map<std::string, double> stats;
  for (const char* name : {"cache.hits", "cache.misses", "cache.evictions",
                           "scheduler.rejected", "scheduler.timed_out"}) {
    const std::string key = std::string("\"") + name + "\": ";
    const size_t at = reply.body.find(key);
    if (at != std::string::npos) {
      stats[name] = std::strtod(reply.body.c_str() + at + key.size(), nullptr);
    }
  }
  return stats;
}

/// The service layers' figures on a workload that does not serve: a
/// daemon holding its stores answers kProbeQueries uncached queries,
/// then one republish.
LoopStats ServedProbe(const WorkloadSpec& spec, const RunOptions& options,
                      Prepared& p, SpanLog* log, LayerFigures* figures) {
  Served s(spec, options, p, /*cache=*/false);
  std::unique_ptr<Server> server = StartServer(spec, options);
  LoopStats stats;
  {
    Client client = Must(Client::Connect(SocketPath(options)), "connect");
    VersionBook::Memo memo(spec.stores.size());
    for (int i = 0; i < kProbeQueries; ++i) {
      Query(s, &client, 0, &stats, log, &memo);
    }
    Republish(s, &client, 0, 0, &stats, log, &memo);
    figures->server_stats = ServerStats(&client);
  }
  server->Stop();
  return stats;
}

// --- mine_medline ---------------------------------------------------------

struct MineOutput {
  std::string body;
  flipper::MiningStats stats;
};

/// One solo cold mine, as `flipper_cli mine --input` runs it.
MineOutput MineOnce(const std::string& path, const MineRequest& request,
                    SpanLog* log, MetricsRegistry* registry) {
  SpanScope op(log, Layer::kOp, 0);
  std::optional<StoreReader> reader;
  {
    SpanScope span(log, Layer::kOpen, 0, op.index());
    reader.emplace(Must(StoreReader::Open(path), "open " + path));
  }
  flipper::MiningConfig config = flipper::service::ToMiningConfig(request);
  config.metrics = registry;
  flipper::LevelViews views;
  {
    SpanScope span(log, Layer::kBuild, 0, op.index());
    flipper::ThreadPool pool(config.num_threads);
    // The options the miner's own views_build stage uses.
    flipper::LevelViews::BuildOptions build;
    build.build_catalogs =
        config.enable_segment_skipping &&
        (config.counter == flipper::CounterKind::kHorizontal ||
         config.enable_scan_cells);
    views = Must(flipper::LevelViews::Build(reader->db(), reader->taxonomy(),
                                            &pool, build),
                 "LevelViews::Build");
  }
  MineOutput out;
  std::vector<flipper::FlippingPattern> patterns;
  {
    SpanScope span(log, Layer::kRun, 0, op.index());
    flipper::MiningResult result =
        Must(flipper::FlipperMiner::Run(reader->db(), reader->taxonomy(),
                                        config, &views),
             "FlipperMiner::Run");
    patterns = std::move(result.patterns);
    out.stats = std::move(result.stats);
  }
  {
    SpanScope span(log, Layer::kRender, 0, op.index());
    out.body = RenderBody(std::move(patterns), reader->dict(), request);
  }
  return out;
}

RunResult RunMineMedline(const WorkloadSpec& spec, const RunOptions& options) {
  Prepared p = LoadPrepared(spec, options.data_dir);
  const MineRequest request = spec.configs[0].ToRequest(spec.query_threads);
  const std::string path = LivePath(options, spec.stores[0].name);

  SpanLog setup_log(options.trace);
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t start = NowNs();
    {
      SpanScope span(&setup_log, Layer::kWrite, 0);
      WriteStore(p.sources[0][0], path);
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  LayerFigures figures;
  figures.bytes_per_item =
      static_cast<double>(FileBytes(path)) /
      static_cast<double>(p.sources[0][0].db().total_items());

  const auto check = [&](const MineOutput& out) {
    if (out.body != p.oracle[0][0]) {
      Fail("mine_medline body differs from the oracle");
    }
    if (!(MinerCounts::From(out.stats) == p.counts[0])) {
      Fail("mine_medline miner counters differ from the prepared run's");
    }
  };
  SpanLog off(false);
  check(MineOnce(path, request, &off, nullptr));  // warm-up
  const double peak_rss_mb = PeakRssMb();

  const auto loop = [&](double seconds, SpanLog* log) {
    LoopStats stats;
    stats.start_ns = NowNs();
    const int64_t deadline =
        stats.start_ns + static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < deadline) {
      std::optional<MetricsRegistry> registry;
      if (log->enabled()) registry.emplace();
      const int64_t start = NowNs();
      const MineOutput out =
          MineOnce(path, request, log, registry ? &*registry : nullptr);
      const int64_t done = NowNs();
      stats.Record(NsToMs(done - start), done);
      ++stats.attempted;
      check(out);
      if (registry) {
        const MetricsRegistry::Snapshot snap = registry->Snap();
        const auto wait = snap.histograms.find("stage.count_wait_ms");
        figures.count_wait_ms.push_back(
            wait == snap.histograms.end() ? 0.0 : wait->second.sum_ms);
        figures.pool_utilization.push_back(
            registry->gauge("pool.utilization"));
      }
    }
    stats.end_ns = NowNs();
    return stats;
  };

  RunResult result;
  const double store_bytes = static_cast<double>(FileBytes(path));
  if (!options.trace) {
    const LoopStats stats = loop(options.seconds, &off);
    result.notes.push_back(Summary("untraced", stats));
    SetEndToEnd(stats, setup_s, peak_rss_mb, store_bytes, &result);
    return result;
  }
  const LoopStats untraced = loop(options.seconds / 2, &off);
  SpanLog log(true);
  const LoopStats traced = loop(options.seconds / 2, &log);
  figures.counts = p.counts[0];
  const LoopStats served = ServedProbe(spec, options, p, &log, &figures);
  const std::vector<const SpanLog*> logs = {&setup_log, &log};
  SetPerLayer(logs, figures, untraced, traced, served, Layer::kOp, &result);
  if (result.metrics["trace.child_coverage"].value < 0.9) {
    Fail("open/views/run/render spans cover less than 90% of an op span");
  }
  result.notes.push_back(Summary("untraced half", untraced));
  result.notes.push_back(Summary("traced half", traced));
  WriteSpans(logs, options.trace_out);
  return result;
}

// --- Served workloads -----------------------------------------------------

/// nproc connections, each cycling the config list from its own offset.
LoopStats UncachedLoop(Served& s, std::vector<Client>& clients,
                       double seconds, std::vector<SpanLog>* logs) {
  const int n = static_cast<int>(s.spec.configs.size());
  const int threads = static_cast<int>(clients.size());
  std::vector<LoopStats> per_thread(clients.size());
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      VersionBook::Memo memo(s.spec.stores.size());
      LoopStats& stats = per_thread[static_cast<size_t>(t)];
      for (int i = t * n / threads; NowNs() < deadline; ++i) {
        Query(s, &clients[static_cast<size_t>(t)], i % n, &stats,
              &(*logs)[static_cast<size_t>(t)], &memo);
      }
      stats.end_ns = NowNs();
    });
  }
  for (std::thread& thread : pool) thread.join();
  LoopStats all;
  all.start_ns = start;
  for (const LoopStats& stats : per_thread) all.Merge(stats);
  return all;
}

/// nproc - 1 Zipf readers (cache on) plus one writer that republishes
/// the primary store after every kRepublishEvery reader requests.
LoopStats HotLoop(Served& s, std::vector<Client>& clients, double seconds,
                  std::vector<SpanLog>* logs) {
  const size_t readers = clients.size() - 1;
  std::vector<double> cdf;
  double total = 0;
  for (size_t r = 0; r < s.spec.configs.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf.push_back(total);
  }
  int writer_config = -1;  // the most popular config of the primary store
  for (size_t c = 0; c < s.store_of.size() && writer_config < 0; ++c) {
    if (s.store_of[c] == 0) writer_config = static_cast<int>(c);
  }

  std::vector<LoopStats> per_thread(clients.size());
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> threshold{kRepublishEvery};
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);

  std::vector<std::thread> pool;
  for (size_t t = 0; t < readers; ++t) {
    pool.emplace_back([&, t] {
      std::mt19937_64 rng(s.options.seed * 1000003 + t + 1);
      std::uniform_real_distribution<double> uniform(0, total);
      VersionBook::Memo memo(s.spec.stores.size());
      LoopStats& stats = per_thread[t];
      while (NowNs() < deadline) {
        const double u = uniform(rng);
        const int config = static_cast<int>(
            std::upper_bound(cdf.begin(), cdf.end() - 1, u) - cdf.begin());
        Query(s, &clients[t], config, &stats, &(*logs)[t], &memo);
        if (++completed == threshold.load()) {
          std::lock_guard<std::mutex> lock(mu);
          cv.notify_all();
        }
      }
      stats.end_ns = NowNs();
    });
  }
  pool.emplace_back([&] {
    VersionBook::Memo memo(s.spec.stores.size());
    LoopStats& stats = per_thread[readers];
    SpanLog* log = &(*logs)[readers];
    for (int i = 1;; ++i) {
      threshold = i * kRepublishEvery;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return stop || completed >= i * kRepublishEvery; });
        if (stop) break;
      }
      Republish(s, &clients[readers], RepublishVersion(i), writer_config,
                &stats, log, &memo);
    }
    stats.end_ns = std::max(stats.end_ns, NowNs());
  });
  for (size_t t = 0; t < readers; ++t) pool[t].join();
  {
    std::lock_guard<std::mutex> lock(mu);
    stop = true;
  }
  cv.notify_all();
  pool.back().join();
  // The loop ends when the last reader stops, or later when a republish
  // was still in flight then.
  LoopStats all;
  all.start_ns = start;
  for (const LoopStats& stats : per_thread) all.Merge(stats);
  return all;
}

/// The per-layer view of what a served cache miss costs: the registry's
/// Open + Build of each store (same options: validated, catalogs on,
/// hardware threads), then every config's Run + render at the served
/// thread count, bodies and counters checked.
void SoloLayerPass(Served& s, SpanLog* log, LayerFigures* figures) {
  for (size_t st = 0; st < s.spec.stores.size(); ++st) {
    const int tag = static_cast<int>(st);
    const std::string path = LivePath(s.options, s.spec.stores[st].name);
    std::optional<StoreReader> reader;
    flipper::LevelViews views;
    // Repeated like the set-up, so the open and build figures are medians.
    for (int rep = 0; rep < kSetupReps; ++rep) {
      views = flipper::LevelViews();
      reader.reset();
      {
        SpanScope span(log, Layer::kOpen, tag);
        reader.emplace(Must(StoreReader::Open(path), "open " + path));
      }
      SpanScope span(log, Layer::kBuild, tag);
      flipper::ThreadPool pool(0);
      flipper::LevelViews::BuildOptions build;
      build.build_catalogs = true;
      views = Must(flipper::LevelViews::Build(reader->db(),
                                              reader->taxonomy(), &pool,
                                              build),
                   "LevelViews::Build");
    }
    for (size_t c = 0; c < s.spec.configs.size(); ++c) {
      if (s.store_of[c] != tag) continue;
      const MineRequest request =
          s.spec.configs[c].ToRequest(s.spec.query_threads);
      MetricsRegistry registry;
      flipper::MiningConfig config = flipper::service::ToMiningConfig(request);
      config.metrics = &registry;
      std::vector<flipper::FlippingPattern> patterns;
      MinerCounts counts;
      {
        SpanScope span(log, Layer::kRun, tag);
        flipper::MiningResult result =
            Must(flipper::FlipperMiner::Run(reader->db(), reader->taxonomy(),
                                            config, &views),
                 "FlipperMiner::Run");
        patterns = std::move(result.patterns);
        counts = MinerCounts::From(result.stats);
      }
      std::string body;
      {
        SpanScope span(log, Layer::kRender, tag);
        body = RenderBody(std::move(patterns), reader->dict(), request);
      }
      if (body != s.p.oracle[0][c]) {
        Fail("solo body differs from the oracle on " +
             s.spec.configs[c].Describe());
      }
      if (!(counts == s.p.counts[c])) {
        Fail("miner counters differ from the prepared run's on " +
             s.spec.configs[c].Describe());
      }
      figures->counts += counts;
      const auto snap = registry.Snap();
      const auto wait = snap.histograms.find("stage.count_wait_ms");
      figures->count_wait_ms.push_back(
          wait == snap.histograms.end() ? 0.0 : wait->second.sum_ms);
      figures->pool_utilization.push_back(registry.gauge("pool.utilization"));
    }
  }
}

RunResult RunServed(const WorkloadSpec& spec, const RunOptions& options) {
  Prepared p = LoadPrepared(spec, options.data_dir);
  const bool hot = spec.name == "serve_hot_refresh";
  Served s(spec, options, p, /*cache=*/hot);

  // Set-up: write every store, then start a daemon holding them.
  SpanLog setup_log(options.trace);
  std::unique_ptr<Server> server;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server) server->Stop();
    server.reset();
    const int64_t start = NowNs();
    for (size_t st = 0; st < spec.stores.size(); ++st) {
      SpanScope span(&setup_log, Layer::kWrite, static_cast<int>(st));
      WriteStore(p.sources[st][0], LivePath(options, spec.stores[st].name));
    }
    {
      SpanScope span(&setup_log, Layer::kAddStore, 0);
      server = StartServer(spec, options);
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  double store_bytes = 0;
  for (const StoreSpec& store : spec.stores) {
    store_bytes +=
        static_cast<double>(FileBytes(LivePath(options, store.name)));
  }
  LayerFigures figures;
  figures.bytes_per_item =
      static_cast<double>(FileBytes(LivePath(options, spec.stores[0].name))) /
      static_cast<double>(p.sources[0][0].db().total_items());

  // nproc connections; the hot workload needs a reader and a writer.
  const int num_clients = hot ? std::max(2, Nproc()) : Nproc();
  std::vector<Client> clients;
  for (int t = 0; t < num_clients; ++t) {
    clients.push_back(
        Must(Client::Connect(SocketPath(options)), "connect"));
  }
  // Warm-up, untimed: pins each store's version-0 fingerprint, and on
  // the hot workload fills the cache with every config.
  {
    LoopStats ignored;
    SpanLog off(false);
    VersionBook::Memo memo(spec.stores.size());
    const size_t warm = hot ? spec.configs.size() : 1;
    for (size_t c = 0; c < warm; ++c) {
      Query(s, &clients[0], static_cast<int>(c), &ignored, &off, &memo);
    }
  }
  const double peak_rss_mb = PeakRssMb();

  const auto loop = [&](double seconds, bool traced) {
    std::vector<SpanLog> logs;
    for (size_t t = 0; t < clients.size(); ++t) logs.emplace_back(traced);
    LoopStats stats = hot ? HotLoop(s, clients, seconds, &logs)
                          : UncachedLoop(s, clients, seconds, &logs);
    return std::make_pair(std::move(stats), std::move(logs));
  };

  RunResult result;
  if (!options.trace) {
    const LoopStats stats = loop(options.seconds, false).first;
    result.notes.push_back(Summary("untraced", stats));
    SetEndToEnd(stats, setup_s, peak_rss_mb, store_bytes, &result);
  } else {
    SpanLog solo_log(true);
    SoloLayerPass(s, &solo_log, &figures);
    const LoopStats untraced = loop(options.seconds / 2, false).first;
    auto [traced, logs] = loop(options.seconds / 2, true);
    LoopStats served = traced;
    if (!hot) {
      // The uncached loop never republishes: one republish after it.
      VersionBook::Memo memo(spec.stores.size());
      Republish(s, &clients[0], 0, 0, &served, &logs[0], &memo);
    }
    figures.server_stats = ServerStats(&clients[0]);
    std::vector<const SpanLog*> all = {&setup_log, &solo_log};
    for (const SpanLog& log : logs) all.push_back(&log);
    SetPerLayer(all, figures, untraced, traced, served, Layer::kRefresh,
                &result);
    result.notes.push_back(Summary("untraced half", untraced));
    result.notes.push_back(Summary("traced half", traced));
    WriteSpans(all, options.trace_out);
  }
  clients.clear();
  server->Stop();
  return result;
}

}  // namespace

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options) {
  return spec.name == "mine_medline" ? RunMineMedline(spec, options)
                                     : RunServed(spec, options);
}

}  // namespace e2ebench
