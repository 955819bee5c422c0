// Observability: the MetricsRegistry (core/pipeline_metrics.h) —
// counter/gauge semantics, exact nearest-rank percentiles up to the
// reservoir cap and log-bucket fallback beyond it, the JSON report
// schema, the pool-task observer path (concurrently, the TSan
// target), and a full mining run populating stage and pool metrics
// without changing the mined patterns.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/flipper_miner.h"
#include "core/pattern_io.h"
#include "core/pipeline_metrics.h"
#include "test_util.h"

namespace flipper {
namespace {

TEST(MetricsRegistry, CountersAccumulateAndGaugesOverwrite) {
  MetricsRegistry m;
  EXPECT_EQ(m.counter("absent"), 0);
  EXPECT_EQ(m.gauge("absent"), 0.0);
  m.AddCounter("c", 2);
  m.AddCounter("c", 3);
  m.SetGauge("g", 1.5);
  m.SetGauge("g", 2.5);
  EXPECT_EQ(m.counter("c"), 5);
  EXPECT_DOUBLE_EQ(m.gauge("g"), 2.5);
}

TEST(MetricsRegistry, PercentilesAreExactWithinTheReservoir) {
  MetricsRegistry m;
  // 1..100 ms, shuffled order must not matter for nearest-rank.
  for (int i = 100; i >= 1; --i) {
    m.ObserveMs("lat", static_cast<double>(i));
  }
  const auto snap = m.Snap();
  ASSERT_TRUE(snap.histograms.count("lat"));
  const auto& h = snap.histograms.at("lat");
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.min_ms, 1.0);
  EXPECT_DOUBLE_EQ(h.max_ms, 100.0);
  EXPECT_DOUBLE_EQ(h.sum_ms, 5050.0);
  // Nearest-rank: sorted[ceil(q * n) - 1].
  EXPECT_DOUBLE_EQ(h.p50_ms, 50.0);
  EXPECT_DOUBLE_EQ(h.p95_ms, 95.0);
  EXPECT_DOUBLE_EQ(h.p99_ms, 99.0);
}

TEST(MetricsRegistry, BucketFallbackStaysWithinAFactorOfTwo) {
  MetricsRegistry m;
  const size_t n = MetricsRegistry::kMaxExactSamples + 2000;
  for (size_t i = 0; i < n; ++i) {
    m.ObserveMs("lat", 4.0);
  }
  const auto snap = m.Snap();
  const auto& h = snap.histograms.at("lat");
  EXPECT_EQ(h.count, n);
  EXPECT_DOUBLE_EQ(h.min_ms, 4.0);
  EXPECT_DOUBLE_EQ(h.max_ms, 4.0);
  // Past the reservoir, percentiles come from log2 bucket midpoints:
  // monotone and within 2x of the true value.
  for (const double p : {h.p50_ms, h.p95_ms, h.p99_ms}) {
    EXPECT_GE(p, 2.0);
    EXPECT_LE(p, 8.0);
  }
  EXPECT_LE(h.p50_ms, h.p95_ms);
  EXPECT_LE(h.p95_ms, h.p99_ms);
}

TEST(MetricsRegistry, WriteJsonHasTheDocumentedSchema) {
  MetricsRegistry m;
  m.AddCounter("b.count", 7);
  m.AddCounter("a.count", 1);
  m.SetGauge("g.ratio", 0.25);
  m.ObserveMs("stage.demo_ms", 1.0);
  std::ostringstream out;
  m.WriteJson(out);
  const std::string json = out.str();

  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"b.count\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"g.ratio\": 0.250000"), std::string::npos);
  // Keys are sorted — a.count precedes b.count.
  EXPECT_LT(json.find("\"a.count\""), json.find("\"b.count\""));
  // The histogram carries the full percentile set.
  for (const char* field : {"\"count\":", "\"sum_ms\":", "\"min_ms\":",
                            "\"max_ms\":", "\"p50_ms\":", "\"p95_ms\":",
                            "\"p99_ms\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  // First and last characters form a JSON object.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');  // trailing newline after
}

TEST(MetricsRegistry, ScopedStageTimerRecordsWallAndCpu) {
  MetricsRegistry m;
  {
    ScopedStageTimer timer(&m, "demo");
    // Busy loop long enough to be visible on both clocks.
    volatile uint64_t acc = 0;
    for (int i = 0; i < 2'000'000; ++i) acc = acc + static_cast<uint64_t>(i);
  }
  const auto snap = m.Snap();
  ASSERT_TRUE(snap.histograms.count("stage.demo_ms"));
  ASSERT_TRUE(snap.histograms.count("stage.demo_cpu_ms"));
  EXPECT_EQ(snap.histograms.at("stage.demo_ms").count, 1u);
  EXPECT_GT(snap.histograms.at("stage.demo_ms").sum_ms, 0.0);
  // Null registry: completely inert.
  ScopedStageTimer inert(nullptr, "demo");
}

TEST(MetricsRegistry, PoolObserverAccumulatesAndFinalizes) {
  MetricsRegistry m;
  m.OnPoolTask(/*queue_ns=*/1'000'000, /*run_ns=*/2'000'000);
  m.OnPoolTask(/*queue_ns=*/3'000'000, /*run_ns=*/4'000'000);
  EXPECT_EQ(m.pool_tasks(), 2u);
  EXPECT_EQ(m.pool_busy_ns(), 6'000'000u);

  m.FinalizePool(/*wall_ms=*/10.0, /*num_threads=*/2);
  EXPECT_EQ(m.counter("pool.tasks"), 2);
  EXPECT_DOUBLE_EQ(m.gauge("pool.busy_ms"), 6.0);
  EXPECT_DOUBLE_EQ(m.gauge("pool.queue_wait_ms_total"), 4.0);
  EXPECT_DOUBLE_EQ(m.gauge("pool.queue_wait_ms_max"), 3.0);
  // busy / (wall * threads) = 6 / 20.
  EXPECT_DOUBLE_EQ(m.gauge("pool.utilization"), 0.3);
  // The histogram records one sample per run: the mean queue wait
  // (per-task samples would require locking on the observer path).
  const auto snap = m.Snap();
  const auto& h = snap.histograms.at("pool.queue_wait_ms");
  EXPECT_EQ(h.count, 1u);
  EXPECT_DOUBLE_EQ(h.sum_ms, 2.0);  // (1 ms + 3 ms) / 2 tasks
}

TEST(MetricsRegistry, UtilizationIsClampedToOne) {
  MetricsRegistry m;
  m.OnPoolTask(0, 50'000'000);  // 50 ms busy in a 10 ms wall window
  m.FinalizePool(/*wall_ms=*/10.0, /*num_threads=*/1);
  EXPECT_DOUBLE_EQ(m.gauge("pool.utilization"), 1.0);
}

// TSan target: concurrent counters/gauges/histograms plus the
// atomics-only observer path from many threads at once.
TEST(MetricsRegistry, ConcurrentRecordingIsSafe) {
  MetricsRegistry m;
  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m, t] {
      for (int i = 0; i < kOps; ++i) {
        m.AddCounter("c", 1);
        m.ObserveMs("lat", static_cast<double>(t + 1));
        m.OnPoolTask(1000, 2000);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(m.counter("c"), kThreads * kOps);
  EXPECT_EQ(m.pool_tasks(),
            static_cast<uint64_t>(kThreads) * kOps);
  EXPECT_EQ(m.Snap().histograms.at("lat").count,
            static_cast<uint64_t>(kThreads) * kOps);
}

// The observer plugged into a real pool: every submitted task is
// observed with plausible queue/run times.
TEST(MetricsRegistry, ObservesRealPoolTasks) {
  MetricsRegistry m;
  ThreadPool pool(3);
  pool.set_observer(&m);
  constexpr int kTasks = 64;
  std::atomic<int> ran{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(m.pool_tasks(), static_cast<uint64_t>(kTasks));
}

std::string PatternsCsv(const MiningResult& result) {
  std::ostringstream out;
  EXPECT_TRUE(WritePatternsCsv(result.patterns, nullptr, out).ok());
  return out.str();
}

TEST(MetricsRegistry, MiningPopulatesTheRegistryWithoutChangingOutput) {
  testutil::Dataset data = testutil::RandomDataset(7);
  MiningConfig config;
  config.gamma = 0.4;
  config.epsilon = 0.2;
  config.min_support = {0.05, 0.02, 0.02};
  config.num_threads = 4;

  auto plain = FlipperMiner::Run(data.db, data.taxonomy, config);
  ASSERT_TRUE(plain.ok()) << plain.status();

  MetricsRegistry m;
  config.metrics = &m;
  auto measured = FlipperMiner::Run(data.db, data.taxonomy, config);
  ASSERT_TRUE(measured.ok()) << measured.status();

  EXPECT_EQ(PatternsCsv(*plain), PatternsCsv(*measured));

  // The MiningStats counters were absorbed 1:1.
  const MiningStats& stats = measured->stats;
  EXPECT_EQ(m.counter("mine.cells"),
            static_cast<int64_t>(stats.cells.size()));
  EXPECT_EQ(m.counter("mine.candidates_generated"),
            static_cast<int64_t>(stats.total_generated));
  EXPECT_EQ(m.counter("mine.candidates_counted"),
            static_cast<int64_t>(stats.total_counted));
  EXPECT_EQ(m.counter("mine.db_scans"),
            static_cast<int64_t>(stats.db_scans));
  EXPECT_EQ(m.counter("mine.scan_cell_scans"),
            static_cast<int64_t>(stats.scan_cell_scans));
  EXPECT_EQ(m.counter("mine.segments_skipped"),
            static_cast<int64_t>(stats.segments_skipped));
  EXPECT_EQ(m.counter("mine.txns_prefiltered"),
            static_cast<int64_t>(stats.txns_prefiltered));
  EXPECT_EQ(m.counter("mine.positive_itemsets"),
            static_cast<int64_t>(stats.num_positive));
  EXPECT_EQ(m.counter("mine.negative_itemsets"),
            static_cast<int64_t>(stats.num_negative));
  EXPECT_EQ(m.counter("mine.sibp_banned_items"),
            static_cast<int64_t>(stats.sibp_banned_items));
  EXPECT_EQ(m.counter("mine.peak_candidate_bytes"),
            static_cast<int64_t>(stats.peak_candidate_bytes));

  // Stage histograms and pool metrics exist with plausible values.
  const auto snap = m.Snap();
  for (const char* name :
       {"stage.pool_start_ms", "stage.views_build_ms",
        "stage.singletons_ms", "stage.count_wait_ms",
        "stage.evaluate_ms", "stage.assemble_ms"}) {
    EXPECT_TRUE(snap.histograms.count(name)) << name;
  }
  EXPECT_GT(m.counter("pool.tasks"), 0);
  EXPECT_GT(m.gauge("mine.total_ms"), 0.0);
  const double utilization = m.gauge("pool.utilization");
  EXPECT_GT(utilization, 0.0);
  EXPECT_LE(utilization, 1.0);

  // The JSON report round-trips the same names.
  std::ostringstream out;
  m.WriteJson(out);
  EXPECT_NE(out.str().find("\"mine.cells\""), std::string::npos);
  EXPECT_NE(out.str().find("\"stage.count_wait_ms\""),
            std::string::npos);
}

}  // namespace
}  // namespace flipper
