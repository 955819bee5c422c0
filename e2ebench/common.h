// Shared pieces of the end-to-end benchmark program: workload specs
// (stores, query configs, version sequences), the prepared-data layout,
// timing and statistics helpers, and the in-memory span log.

#ifndef E2EBENCH_COMMON_H_
#define E2EBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/pattern.h"
#include "core/stats.h"
#include "data/item_dictionary.h"
#include "service/mine_service.h"

namespace e2ebench {

using flipper::Result;
using flipper::Status;

/// Reports `what` and `status` on stderr and exits 1. The benchmark
/// never prints a result line after a failure.
[[noreturn]] void Fail(const std::string& what);

inline void Must(const Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
}
template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Fail(what + ": " + result.status().ToString());
  return std::move(result).value();
}

/// steady_clock nanoseconds (sub-microsecond resolution).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

int Nproc();

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

std::string ReadFileOrDie(const std::string& path);
/// Size of `path` in bytes (exits 1 when it cannot be stat'ed).
uint64_t FileBytes(const std::string& path);
void WriteFileOrDie(const std::string& path, const std::string& data);

/// The emission tail every mine path shares: top-k selection, then
/// service::RenderPatterns in the request's format.
std::string RenderBody(std::vector<flipper::FlippingPattern> patterns,
                       const flipper::ItemDictionary& dict,
                       const flipper::service::MineRequest& request,
                       size_t* num_patterns = nullptr);

// --- Workload specs ---------------------------------------------------

/// One query: the store it targets and its mine options in protocol
/// spelling (`measure cosine`, `gamma 0.3`, ...). The thread count is
/// added by the caller.
struct QueryConfig {
  std::string store;
  std::vector<std::pair<std::string, std::string>> options;

  flipper::service::MineRequest ToRequest(int threads) const;
  std::string Describe() const;
};

/// A dataset the workload writes and serves. `versions` > 1 means the
/// store is republished during the run with version v's data generated
/// from seed + v.
struct StoreSpec {
  std::string name;  // medline | quest | census (the datagen scenario)
  int versions = 1;
};

struct WorkloadSpec {
  std::string name;
  /// stores[0] is the primary store the per-layer storage metrics use.
  std::vector<StoreSpec> stores;
  std::vector<QueryConfig> configs;
  /// Miner threads per query: nproc for the solo mine, 1 for served
  /// queries (the daemon's workers then fit in nproc).
  int query_threads = 1;

  int StoreIndex(const std::string& store) const;
};

/// The workload's stores and configs for `seed`; fails on an unknown
/// workload name.
WorkloadSpec MakeSpec(const std::string& workload, uint64_t seed);

/// Version of the republished store after republish `i` (1-based): the
/// fixed sequence 1, 2, 3, 4, 1, 2, ...
int RepublishVersion(int i);
constexpr int kRepublishCycle = 4;

// --- Prepared data (written by `prepare`, read by `run`) --------------

std::string SourceStorePath(const std::string& dir, const std::string& store,
                            int version);
std::string OraclePath(const std::string& dir, int version, int config);
std::string CountersPath(const std::string& dir);
std::string DonePath(const std::string& dir);

/// The exact work counts of one FlipperMiner run.
struct MinerCounts {
  int64_t candidates_counted = 0;
  int64_t db_scans = 0;
  int64_t txns_prefiltered = 0;
  int64_t segments_skipped = 0;
  int64_t labelled = 0;  // frequent itemsets labelled POS or NEG

  static MinerCounts From(const flipper::MiningStats& stats);
  MinerCounts& operator+=(const MinerCounts& other);
  bool operator==(const MinerCounts& other) const = default;
  std::string ToString() const;
  static Result<MinerCounts> Parse(const std::string& text);
};

// --- Spans ------------------------------------------------------------

enum class Layer : uint8_t {
  kOp,        // one mine_medline operation (root)
  kOpen,      // StoreReader::Open
  kBuild,     // LevelViews::Build
  kRun,       // FlipperMiner::Run
  kRender,    // TopKMostFlipping + RenderPatterns
  kWrite,     // storage::WriteStoreFile
  kAddStore,  // Server::AddStore + Start
  kCall,      // Client::Call
  kRefresh,   // republish start -> first answer on the new version
};
const char* LayerName(Layer layer);

struct Span {
  Layer layer = Layer::kOp;
  int tag = 0;      // index of the store the span worked on
  int parent = -1;  // index into the same log, -1 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's spans, kept in memory and written when the run ends.
/// Disabled logs record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }
  int Begin(Layer layer, int tag, int parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({layer, tag, parent, NowNs(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int index) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Per-span self time: duration minus the time its children cover.
  std::vector<int64_t> SelfNs() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(SpanLog* log, Layer layer, int tag, int parent = -1)
      : log_(log), index_(log->Begin(layer, tag, parent)) {}
  ~SpanScope() { log_->End(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

// --- Results ----------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;
};

}  // namespace e2ebench

#endif  // E2EBENCH_COMMON_H_
