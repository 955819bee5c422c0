// `e2ebench prepare`: generates a workload's inputs from its seed with
// src/datagen and computes every oracle before anything is timed. It
// runs in its own process, so neither generation time nor generation
// memory reaches a metric; `run` only reads what this writes.
//
// For each (store version, config) the oracle body is the NaiveMiner
// baseline rendered through TopKMostFlipping + RenderPatterns, and it
// must equal service::ExecuteMineRequest's solo body. The exact miner
// counters of every version-0 config must repeat between 1 and nproc
// threads.

#include "prepare.h"

#include <atomic>
#include <filesystem>
#include <thread>

#include "core/flipper_miner.h"
#include "core/naive_miner.h"
#include "datagen/census_sim.h"
#include "datagen/medline_sim.h"
#include "datagen/quest_gen.h"
#include "datagen/taxonomy_gen.h"
#include "storage/store_reader.h"
#include "storage/store_writer.h"

namespace e2ebench {
namespace {

using flipper::ItemDictionary;
using flipper::Taxonomy;
using flipper::TransactionDb;

void GenerateStore(const std::string& scenario, uint64_t seed,
                   const std::string& path) {
  ItemDictionary dict;
  Taxonomy taxonomy;
  TransactionDb db;
  if (scenario == "quest") {
    // The paper's §5.1 taxonomy (10 roots, fanout 5) and |D| = 100K.
    taxonomy = Must(flipper::GenerateBalancedTaxonomy({}, &dict),
                    "quest taxonomy");
    flipper::QuestParams params;
    params.seed = seed;
    db = Must(flipper::GenerateQuest(params, taxonomy), "quest datagen");
  } else {
    flipper::SimulatedDataset data;
    if (scenario == "medline") {
      flipper::MedlineParams params;  // 640K citations, paper size
      params.seed = seed;
      data = Must(flipper::GenerateMedline(params), "medline datagen");
    } else {
      flipper::CensusParams params;  // 32K records, paper size
      params.seed = seed;
      data = Must(flipper::GenerateCensus(params), "census datagen");
    }
    dict = std::move(data.dict);
    taxonomy = std::move(data.taxonomy);
    db = std::move(data.db);
  }
  Must(flipper::storage::WriteStoreFile(path, db, dict, taxonomy),
       "write " + path);
}

/// The NaiveMiner oracle body: the CLI's `mine --baseline` path.
std::string NaiveBody(const flipper::storage::StoreReader& reader,
                      const flipper::service::MineRequest& request,
                      size_t* num_patterns) {
  flipper::MiningResult result = Must(
      flipper::NaiveMiner::Run(reader.db(), reader.taxonomy(),
                               flipper::service::ToMiningConfig(request)),
      "NaiveMiner");
  return RenderBody(std::move(result.patterns), reader.dict(), request,
                    num_patterns);
}

MinerCounts CountsAt(const flipper::storage::StoreReader& reader,
                     const QueryConfig& config, int threads) {
  const flipper::MiningResult result = Must(
      flipper::FlipperMiner::Run(
          reader.db(), reader.taxonomy(),
          flipper::service::ToMiningConfig(config.ToRequest(threads))),
      "FlipperMiner");
  return MinerCounts::From(result.stats);
}

struct Job {
  int version = 0;
  int config = 0;
  size_t num_patterns = 0;
  MinerCounts counts;
};

}  // namespace

void Prepare(const WorkloadSpec& spec, uint64_t seed, const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::vector<Job> jobs;
  for (const StoreSpec& store : spec.stores) {
    for (int v = 0; v < store.versions; ++v) {
      GenerateStore(store.name, seed + static_cast<uint64_t>(v),
                    SourceStorePath(dir, store.name, v));
      for (size_t c = 0; c < spec.configs.size(); ++c) {
        if (spec.configs[c].store == store.name) {
          Job job;
          job.version = v;
          job.config = static_cast<int>(c);
          jobs.push_back(job);
        }
      }
    }
  }

  const int nproc = Nproc();
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t j = next++; j < jobs.size(); j = next++) {
      Job& job = jobs[j];
      const QueryConfig& config = spec.configs[static_cast<size_t>(job.config)];
      const std::string path = SourceStorePath(dir, config.store, job.version);
      const auto reader =
          Must(flipper::storage::StoreReader::Open(path), "open " + path);
      const std::string naive =
          NaiveBody(reader, config.ToRequest(1), &job.num_patterns);
      const flipper::service::MineOutcome solo = Must(
          flipper::service::ExecuteMineRequest(
              reader.db(), reader.taxonomy(), &reader.dict(), nullptr,
              config.ToRequest(spec.query_threads), nullptr),
          "ExecuteMineRequest");
      if (solo.body != naive) {
        Fail("ExecuteMineRequest body differs from the NaiveMiner oracle on " +
             config.Describe() + " (version " + std::to_string(job.version) +
             ")");
      }
      WriteFileOrDie(OraclePath(dir, job.version, job.config), naive);
      if (job.version == 0) {
        job.counts = CountsAt(reader, config, 1);
        if (!(CountsAt(reader, config, nproc) == job.counts)) {
          Fail("miner counters differ between 1 and " + std::to_string(nproc) +
               " threads on " + config.Describe());
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < nproc; ++t) threads.emplace_back(worker);
  for (std::thread& thread : threads) thread.join();

  size_t non_empty = 0;
  std::string counters;
  for (const Job& job : jobs) {
    if (job.version != 0) continue;
    if (job.num_patterns > 0) ++non_empty;
    counters += "c" + std::to_string(job.config) + " " +
                job.counts.ToString() + "\n";
  }
  if (non_empty == 0) {
    Fail("every oracle of " + spec.name + " seed " + std::to_string(seed) +
         " is empty, so a broken miner would match it");
  }
  WriteFileOrDie(CountersPath(dir), counters);
  WriteFileOrDie(DonePath(dir), "ok\n");
}

}  // namespace e2ebench
