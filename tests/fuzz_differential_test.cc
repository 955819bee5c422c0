// Seed-driven randomized differential harness for the whole
// input-to-patterns pipeline. Every round draws a random dataset
// (taxonomy shape, transaction count/width) and a random mining
// configuration (thresholds, measure, counter, pruning stack, scan
// cells, segment skipping, txn prefilter), then requires that
//
//   - FlipperMiner over the text-loaded inputs,
//   - FlipperMiner over a FlipperStore round trip (varint columns +
//     segment catalog, small segments so skipping has bite), and
//   - FlipperMiner over a store grown with 1-3 random append sessions
//     (base prefix + OpenAppend batches, commit trailer in play)
//
// are all byte-identical to the NaiveMiner oracle's CSV export, at 1
// and 4 threads. This is the guard rail for the scan-skipping
// machinery: a single wrongly skipped segment shows up as a support
// (and usually a pattern-set) difference against the oracle — and for
// the append path, where a mis-encoded block pair or stale catalog
// would diverge the same way.
//
// Reproducing a failure: every round prints its seed into the assert
// message; rerun that exact round with
//
//   FLIPPER_FUZZ_SEED=<seed> FLIPPER_FUZZ_ITERS=1 ./fuzz_differential_test
//
// FLIPPER_FUZZ_ITERS (default 10) scales the number of rounds; CI keeps
// it small, soak runs can raise it arbitrarily.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/env.h"
#include "common/rng.h"
#include "core/flipper_miner.h"
#include "core/level_views.h"
#include "core/naive_miner.h"
#include "core/pattern_io.h"
#include "data/db_io.h"
#include "storage/store_reader.h"
#include "storage/store_writer.h"
#include "taxonomy/taxonomy_io.h"
#include "test_util.h"

namespace flipper {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// One round's inputs: the canonical id space comes from reloading the
/// serialized text files, exactly as `flipper_cli mine <basket> <tax>`
/// would assign ids.
struct RoundInputs {
  ItemDictionary dict;
  Taxonomy taxonomy;
  TransactionDb db;
  std::string store_path;
};

RoundInputs MakeRoundInputs(uint64_t seed, const testutil::Dataset& data,
                            uint32_t segment_txns) {
  RoundInputs inputs;
  const std::string tag = "fuzz_" + std::to_string(seed);
  const std::string basket = TempPath(tag + ".basket");
  const std::string taxonomy = TempPath(tag + ".taxonomy");
  EXPECT_TRUE(
      WriteTaxonomyFile(data.taxonomy, data.dict, taxonomy).ok());
  EXPECT_TRUE(WriteBasketFile(data.db, data.dict, basket).ok());
  auto loaded_taxonomy = ReadTaxonomyFile(taxonomy, &inputs.dict);
  EXPECT_TRUE(loaded_taxonomy.ok()) << loaded_taxonomy.status();
  inputs.taxonomy = std::move(loaded_taxonomy).value();
  auto loaded_db = ReadBasketFile(basket, &inputs.dict);
  EXPECT_TRUE(loaded_db.ok()) << loaded_db.status();
  inputs.db = std::move(loaded_db).value();

  inputs.store_path = TempPath(tag + ".fdb");
  storage::StoreWriter::Options options;
  options.segment_txns = segment_txns;
  EXPECT_TRUE(storage::WriteStoreFile(inputs.store_path, inputs.db,
                                      inputs.dict, inputs.taxonomy,
                                      options)
                  .ok());
  return inputs;
}

/// Writes `inputs.db` as a store grown incrementally: a base prefix
/// via Create() plus `num_batches` OpenAppend() sessions over random
/// split points. The result must mine exactly like the bulk-written
/// store.
std::string WriteAppendedStore(const RoundInputs& inputs,
                               const std::string& tag,
                               uint32_t segment_txns,
                               uint32_t num_batches, Rng* rng) {
  const std::string path = TempPath(tag + "_appended.fdb");
  const uint64_t total = inputs.db.size();
  std::vector<uint64_t> cuts = {0, total};
  for (uint32_t b = 0; b < num_batches; ++b) {
    cuts.push_back(rng->Below(total + 1));
  }
  std::sort(cuts.begin(), cuts.end());
  {
    storage::StoreWriter::Options options;
    options.segment_txns = segment_txns;
    auto writer = storage::StoreWriter::Create(path, options);
    EXPECT_TRUE(writer.ok()) << writer.status();
    for (uint64_t t = 0; t < cuts[1]; ++t) {
      EXPECT_TRUE(writer->Append(inputs.db.Get(t)).ok());
    }
    EXPECT_TRUE(writer->Finish(inputs.dict, inputs.taxonomy).ok());
  }
  // Each batch is one commit (empty batches exercise the zero-size
  // block pair).
  for (size_t cut = 1; cut + 1 < cuts.size(); ++cut) {
    auto writer = storage::StoreWriter::OpenAppend(path);
    EXPECT_TRUE(writer.ok()) << writer.status();
    for (uint64_t t = cuts[cut]; t < cuts[cut + 1]; ++t) {
      EXPECT_TRUE(writer->Append(inputs.db.Get(t)).ok());
    }
    EXPECT_TRUE(writer->Finish(inputs.dict, inputs.taxonomy).ok());
  }
  return path;
}

/// Random but valid mining configuration; the whole pruning stack and
/// both counters are in play because every layer must preserve the
/// answer set.
MiningConfig RandomConfig(Rng* rng) {
  MiningConfig config;
  config.gamma = 0.4 + 0.25 * rng->NextDouble();
  config.epsilon =
      std::min(0.1 + 0.2 * rng->NextDouble(), 0.8 * config.gamma);
  const double base = 0.004 + 0.016 * rng->NextDouble();
  config.min_support = {3 * base, 2 * base, base};
  static constexpr MeasureKind kMeasures[] = {
      MeasureKind::kKulczynski, MeasureKind::kCosine,
      MeasureKind::kAllConfidence};
  config.measure = kMeasures[rng->Below(3)];
  config.counter = rng->Bernoulli(0.5) ? CounterKind::kHorizontal
                                       : CounterKind::kVertical;
  static const PruningOptions kPruning[] = {
      PruningOptions::Full(), PruningOptions::FlippingTpg(),
      PruningOptions::FlippingOnly(), PruningOptions::Basic()};
  config.pruning = kPruning[rng->Below(4)];
  config.enable_scan_cells = rng->Bernoulli(0.7);
  config.enable_segment_skipping = rng->Bernoulli(0.75);
  config.enable_txn_prefilter = rng->Bernoulli(0.7);
  return config;
}

std::string ToCsv(const std::vector<FlippingPattern>& patterns,
                  const ItemDictionary& dict) {
  std::ostringstream oss;
  EXPECT_TRUE(WritePatternsCsv(patterns, &dict, oss).ok());
  return oss.str();
}

std::string DescribeConfig(const MiningConfig& config) {
  return "gamma=" + std::to_string(config.gamma) +
         " epsilon=" + std::to_string(config.epsilon) +
         " minsup0=" + std::to_string(config.min_support[0]) +
         " measure=" + std::to_string(static_cast<int>(config.measure)) +
         " counter=" + std::string(CounterKindToString(config.counter)) +
         " pruning=" + config.pruning.ToString() +
         " scan_cells=" + std::to_string(config.enable_scan_cells) +
         " skipping=" +
         std::to_string(config.enable_segment_skipping) +
         " prefilter=" + std::to_string(config.enable_txn_prefilter);
}

/// Runs one round; returns the oracle's pattern count so the suite
/// can prove it is not passing vacuously on empty answer sets.
size_t RunRound(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);

  // Dataset shape.
  const auto num_roots = static_cast<uint32_t>(3 + rng.Below(4));
  const auto fanout = static_cast<uint32_t>(2 + rng.Below(2));
  const auto depth = static_cast<uint32_t>(2 + rng.Below(3));
  const auto num_txns = static_cast<uint32_t>(200 + rng.Below(600));
  const auto max_width = static_cast<uint32_t>(4 + rng.Below(7));
  // Small, shard-misaligned segments so skipping decisions differ
  // from the scan sharding.
  const auto segment_txns = static_cast<uint32_t>(24 + rng.Below(80));

  const testutil::Dataset data = testutil::RandomDataset(
      seed, num_roots, fanout, depth, num_txns, max_width);
  RoundInputs inputs = MakeRoundInputs(seed, data, segment_txns);
  const MiningConfig config = RandomConfig(&rng);
  const auto num_batches = static_cast<uint32_t>(1 + rng.Below(3));
  // Cancellation dimension: about half the rounds run every miner with
  // a live but never-firing CancelToken attached. A present-but-unfired
  // token must be byte-invisible — any divergence here means the cancel
  // polling perturbed the answer set.
  const bool with_token = rng.Bernoulli(0.5);
  CancelToken unfired_token;
  unfired_token.SetDeadlineAfterMs(60 * 60 * 1000);
  const CancelToken* run_token = with_token ? &unfired_token : nullptr;

  const std::string repro =
      "seed=" + std::to_string(seed) +
      " (repro: FLIPPER_FUZZ_SEED=" + std::to_string(seed) +
      " FLIPPER_FUZZ_ITERS=1 ./fuzz_differential_test)\n  dataset: " +
      "roots=" + std::to_string(num_roots) +
      " fanout=" + std::to_string(fanout) +
      " depth=" + std::to_string(depth) +
      " txns=" + std::to_string(num_txns) +
      " segment_txns=" + std::to_string(segment_txns) +
      " append_batches=" + std::to_string(num_batches) +
      " unfired_token=" + std::to_string(with_token) +
      "\n  config: " + DescribeConfig(config);
  SCOPED_TRACE(repro);

  const std::string appended_path = WriteAppendedStore(
      inputs, "fuzz_" + std::to_string(seed), segment_txns, num_batches,
      &rng);

  // The oracle: support-only Apriori over every level, patterns
  // extracted post hoc.
  MiningConfig oracle_config = config;
  oracle_config.num_threads = 1;
  auto oracle =
      NaiveMiner::Run(inputs.db, inputs.taxonomy, oracle_config);
  EXPECT_TRUE(oracle.ok()) << oracle.status();
  if (!oracle.ok()) return 0;
  const std::string expected = ToCsv(oracle->patterns, inputs.dict);

  auto store = storage::StoreReader::Open(inputs.store_path);
  auto appended = storage::StoreReader::Open(appended_path);
  EXPECT_TRUE(store.ok()) << store.status();
  EXPECT_TRUE(appended.ok()) << appended.status();
  if (!store.ok() || !appended.ok()) return 0;
  EXPECT_NE(store->catalog(), nullptr);
  EXPECT_TRUE(appended->VerifyChecksums().ok());
  EXPECT_EQ(appended->header().section_count,
            storage::kMinSectionCount + 2 * num_batches);
  EXPECT_EQ(appended->db().size(), inputs.db.size());

  struct Source {
    const char* name;
    const TransactionDb* db;
    const Taxonomy* taxonomy;
    const ItemDictionary* dict;
  };
  const Source sources[] = {
      {"text", &inputs.db, &inputs.taxonomy, &inputs.dict},
      {"store", &store->db(), &store->taxonomy(), &store->dict()},
      {"appended-store", &appended->db(), &appended->taxonomy(),
       &appended->dict()},
  };
  for (const int threads : {1, 4}) {
    for (const Source& source : sources) {
      MiningConfig run_config = config;
      run_config.num_threads = threads;
      run_config.cancel = run_token;
      auto run =
          FlipperMiner::Run(*source.db, *source.taxonomy, run_config);
      EXPECT_TRUE(run.ok())
          << source.name << " threads=" << threads << ": "
          << run.status();
      if (!run.ok()) return 0;
      EXPECT_EQ(ToCsv(run->patterns, *source.dict), expected)
          << source.name << " diverged from the naive oracle at "
          << threads << " thread(s)";
      if (!run_config.enable_segment_skipping) {
        EXPECT_EQ(run->stats.segments_skipped, 0u)
            << source.name << " skipped segments with skipping disabled";
      }
      if (!run_config.enable_txn_prefilter) {
        EXPECT_EQ(run->stats.txns_prefiltered, 0u)
            << source.name
            << " prefiltered transactions with the prefilter disabled";
      }
    }
  }

  // Concurrency dimension: the daemon's serving shape. Several miners
  // run AT ONCE over one shared, catalog-bearing LevelViews instance
  // of the store (each run brings its own pool), and every one must
  // still match the oracle byte for byte.
  {
    LevelViews::BuildOptions view_options;
    view_options.build_catalogs = true;
    auto shared_views = LevelViews::Build(store->db(), store->taxonomy(),
                                          nullptr, view_options);
    EXPECT_TRUE(shared_views.ok()) << shared_views.status();
    if (!shared_views.ok()) return 0;
    constexpr int kConcurrent = 4;
    std::vector<std::string> bodies(kConcurrent);
    std::vector<std::thread> threads;
    for (int i = 0; i < kConcurrent; ++i) {
      threads.emplace_back([&, i]() {
        MiningConfig run_config = config;
        run_config.num_threads = 1 + i % 3;
        run_config.cancel = run_token;
        auto run = FlipperMiner::Run(store->db(), store->taxonomy(),
                                     run_config, &*shared_views);
        ASSERT_TRUE(run.ok())
            << "concurrent run " << i << ": " << run.status();
        bodies[i] = ToCsv(run->patterns, store->dict());
      });
    }
    for (std::thread& t : threads) t.join();
    for (int i = 0; i < kConcurrent; ++i) {
      EXPECT_EQ(bodies[i], expected)
          << "concurrent shared-views run " << i
          << " diverged from the naive oracle";
    }
  }
  EXPECT_FALSE(unfired_token.Fired());
  return oracle->patterns.size();
}

TEST(FuzzDifferential, RandomDatasetsConfigsAndStores) {
  const auto iters = static_cast<uint64_t>(
      std::max<int64_t>(1, GetEnvInt("FLIPPER_FUZZ_ITERS", 10)));
  const auto master = static_cast<uint64_t>(
      GetEnvInt("FLIPPER_FUZZ_SEED", 1));
  size_t rounds_with_patterns = 0;
  for (uint64_t round = 0; round < iters; ++round) {
    if (RunRound(master + round) > 0) ++rounds_with_patterns;
    if (::testing::Test::HasFailure()) break;  // first seed is enough
  }
  // A differential suite whose oracle never emits a pattern proves
  // nothing; the default seed is chosen so several rounds do. (Guarded
  // to >= 4 rounds so single-round repro runs of a quiet seed do not
  // trip it.)
  if (iters >= 4) {
    EXPECT_GT(rounds_with_patterns, 0u)
        << "every oracle answer set was empty — the generator or "
           "thresholds regressed";
  }
}

}  // namespace
}  // namespace flipper
