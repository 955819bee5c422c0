#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <thread>

#include "core/topk.h"

namespace e2ebench {

void Fail(const std::string& what) {
  // _Exit: server and client threads may still be running; nothing is
  // flushed to stdout, so no result line can follow an error.
  std::cerr << "e2ebench: error: " << what << std::endl;
  std::_Exit(1);
}

int Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Fail("cannot read " + path);
  std::ostringstream data;
  data << in.rdbuf();
  return std::move(data).str();
}

void WriteFileOrDie(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
  out.flush();
  if (!out) Fail("cannot write " + path);
}

uint64_t FileBytes(const std::string& path) {
  std::error_code error;
  const uintmax_t size = std::filesystem::file_size(path, error);
  if (error) Fail("cannot stat " + path + ": " + error.message());
  return static_cast<uint64_t>(size);
}

std::string RenderBody(std::vector<flipper::FlippingPattern> patterns,
                       const flipper::ItemDictionary& dict,
                       const flipper::service::MineRequest& request,
                       size_t* num_patterns) {
  if (request.topk > 0) {
    patterns = flipper::TopKMostFlipping(std::move(patterns),
                                         static_cast<size_t>(request.topk));
  }
  std::ostringstream body;
  Must(flipper::service::RenderPatterns(patterns, &dict, request.format,
                                        body),
       "render");
  if (num_patterns != nullptr) *num_patterns = patterns.size();
  return std::move(body).str();
}

flipper::service::MineRequest QueryConfig::ToRequest(int threads) const {
  flipper::service::MineRequest request = Must(
      flipper::service::MineRequestFromParams(options), "config options");
  request.num_threads = threads;
  return request;
}

std::string QueryConfig::Describe() const {
  std::string text = store;
  for (const auto& [key, value] : options) text += " " + key + "=" + value;
  return text;
}

int WorkloadSpec::StoreIndex(const std::string& store) const {
  for (size_t i = 0; i < stores.size(); ++i) {
    if (stores[i].name == store) return static_cast<int>(i);
  }
  Fail("workload " + name + " has no store " + store);
}

namespace {

QueryConfig Config(const std::string& store, const std::string& measure,
                   const std::string& gamma, const std::string& epsilon,
                   const std::string& minsup = "") {
  QueryConfig config;
  config.store = store;
  config.options = {{"measure", measure}, {"gamma", gamma},
                    {"epsilon", epsilon}};
  if (!minsup.empty()) config.options.emplace_back("minsup", minsup);
  return config;
}

/// Seeded Fisher-Yates, so the order is the same on every platform.
void SeededShuffle(std::vector<QueryConfig>* configs, uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 7);
  for (size_t i = configs->size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(rng() % i);
    std::swap((*configs)[i - 1], (*configs)[j]);
  }
}

}  // namespace

WorkloadSpec MakeSpec(const std::string& workload, uint64_t seed) {
  WorkloadSpec spec;
  spec.name = workload;
  if (workload == "mine_medline") {
    // The CLI's default config: store open and views_build dominate.
    spec.stores = {{"medline", 1}};
    QueryConfig config;
    config.store = "medline";
    spec.configs = {config};
    spec.query_threads = Nproc();
  } else if (workload == "serve_quest_uncached") {
    // Every measure at three threshold pairs. quest's default config
    // mines nothing; epsilon 0.2 yields patterns on every seed tried,
    // so a broken miner cannot match the oracle by printing nothing.
    spec.stores = {{"quest", 1}};
    for (const char* measure : {"kulczynski", "cosine", "all_confidence",
                                "coherence", "max_confidence"}) {
      spec.configs.push_back(Config("quest", measure, "0.3", "0.2"));
      spec.configs.push_back(Config("quest", measure, "0.35", "0.2"));
      spec.configs.push_back(Config("quest", measure, "0.3", "0.15"));
    }
    SeededShuffle(&spec.configs, seed);
  } else if (workload == "serve_hot_refresh") {
    // quest is republished (versions 1..4 cycle); census never changes.
    // The config order is the Zipf popularity order.
    spec.stores = {{"quest", 1 + kRepublishCycle}, {"census", 1}};
    spec.configs = {
        Config("quest", "kulczynski", "0.3", "0.2"),
        Config("quest", "all_confidence", "0.3", "0.2"),
        Config("quest", "cosine", "0.3", "0.2"),
        Config("census", "kulczynski", "0.25", "0.15", "0.002,0.001"),
        Config("census", "kulczynski", "0.3", "0.1"),
        Config("census", "cosine", "0.3", "0.2", "0.002,0.001"),
    };
    SeededShuffle(&spec.configs, seed);
  } else {
    Fail("unknown workload '" + workload +
         "' (expected mine_medline|serve_quest_uncached|serve_hot_refresh)");
  }
  return spec;
}

int RepublishVersion(int i) { return 1 + (i - 1) % kRepublishCycle; }

std::string SourceStorePath(const std::string& dir, const std::string& store,
                            int version) {
  return dir + "/" + store + ".v" + std::to_string(version) + ".fdb";
}
std::string OraclePath(const std::string& dir, int version, int config) {
  return dir + "/oracle.v" + std::to_string(version) + ".c" +
         std::to_string(config) + ".txt";
}
std::string CountersPath(const std::string& dir) {
  return dir + "/counters.txt";
}
std::string DonePath(const std::string& dir) { return dir + "/DONE"; }

MinerCounts MinerCounts::From(const flipper::MiningStats& stats) {
  MinerCounts counts;
  counts.candidates_counted = static_cast<int64_t>(stats.total_counted);
  counts.db_scans = static_cast<int64_t>(stats.db_scans);
  counts.txns_prefiltered = static_cast<int64_t>(stats.txns_prefiltered);
  counts.segments_skipped = static_cast<int64_t>(stats.segments_skipped);
  counts.labelled =
      static_cast<int64_t>(stats.num_positive + stats.num_negative);
  return counts;
}

MinerCounts& MinerCounts::operator+=(const MinerCounts& other) {
  candidates_counted += other.candidates_counted;
  db_scans += other.db_scans;
  txns_prefiltered += other.txns_prefiltered;
  segments_skipped += other.segments_skipped;
  labelled += other.labelled;
  return *this;
}

std::string MinerCounts::ToString() const {
  return std::to_string(candidates_counted) + " " + std::to_string(db_scans) +
         " " + std::to_string(txns_prefiltered) + " " +
         std::to_string(segments_skipped) + " " + std::to_string(labelled);
}

Result<MinerCounts> MinerCounts::Parse(const std::string& text) {
  MinerCounts counts;
  std::istringstream in(text);
  if (!(in >> counts.candidates_counted >> counts.db_scans >>
        counts.txns_prefiltered >> counts.segments_skipped >>
        counts.labelled)) {
    return Status::CorruptedData("bad counters line '" + text + "'");
  }
  return counts;
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kOpen: return "storage.open";
    case Layer::kBuild: return "views.build";
    case Layer::kRun: return "miner.run";
    case Layer::kRender: return "render";
    case Layer::kWrite: return "storage.write";
    case Layer::kAddStore: return "server.add_store";
    case Layer::kCall: return "client.call";
    case Layer::kRefresh: return "refresh";
  }
  return "?";
}

std::vector<int64_t> SpanLog::SelfNs() const {
  // A log belongs to one thread, so its spans nest strictly: the union
  // of a span's children is the sum of their durations.
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

}  // namespace e2ebench
