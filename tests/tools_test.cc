// Tests for the CLI building blocks: the flag parser and the pattern
// exporters, plus the scan-cell strategy toggle and the flipper_cli
// command set driven end-to-end in-process (convert / inspect /
// datagen / mine --input).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "common/arg_parser.h"
#include "core/flipper_miner.h"
#include "core/pattern_io.h"
#include "data/db_io.h"
#include "storage/store_reader.h"
#include "storage/store_writer.h"
#include "taxonomy/taxonomy_io.h"
#include "test_util.h"

namespace flipper {
namespace {

TEST(ArgParser, FlagsSwitchesPositionals) {
  ArgParser args("prog", "test");
  args.AddFlag("gamma", "positive threshold", "FLOAT");
  args.AddFlag("name", "a string");
  args.AddSwitch("verbose", "noise");
  args.AddPositional("input", "input path");

  const char* argv[] = {"prog",          "--gamma=0.25", "data.basket",
                        "--name",        "hello world",  "--verbose"};
  ASSERT_TRUE(args.Parse(6, argv).ok());
  EXPECT_FALSE(args.help_requested());
  EXPECT_EQ(args.GetPositional("input"), "data.basket");
  EXPECT_DOUBLE_EQ(*args.GetDouble("gamma", 0.0), 0.25);
  EXPECT_EQ(args.GetString("name", ""), "hello world");
  EXPECT_TRUE(args.GetSwitch("verbose"));
  EXPECT_FALSE(args.GetSwitch("missing_switch_is_false"));
  EXPECT_EQ(*args.GetInt("missing", 7), 7);
}

TEST(ArgParser, Errors) {
  {
    ArgParser args("prog", "test");
    const char* argv[] = {"prog", "--unknown=1"};
    EXPECT_FALSE(args.Parse(2, argv).ok());
  }
  {
    ArgParser args("prog", "test");
    args.AddFlag("x", "x");
    const char* argv[] = {"prog", "--x"};  // value missing
    EXPECT_FALSE(args.Parse(2, argv).ok());
  }
  {
    ArgParser args("prog", "test");
    args.AddSwitch("v", "v");
    const char* argv[] = {"prog", "--v=yes"};  // switch with value
    EXPECT_FALSE(args.Parse(2, argv).ok());
  }
  {
    ArgParser args("prog", "test");
    args.AddPositional("input", "path");
    const char* argv[] = {"prog"};  // positional missing
    EXPECT_FALSE(args.Parse(1, argv).ok());
  }
  {
    ArgParser args("prog", "test");
    const char* argv[] = {"prog", "stray"};  // unexpected positional
    EXPECT_FALSE(args.Parse(2, argv).ok());
  }
  {
    ArgParser args("prog", "test");
    args.AddFlag("n", "an int", "INT");
    const char* argv[] = {"prog", "--n=abc"};
    ASSERT_TRUE(args.Parse(2, argv).ok());
    EXPECT_FALSE(args.GetInt("n", 0).ok());  // typed accessor fails
  }
}

TEST(ArgParser, HelpRequested) {
  ArgParser args("prog", "description text");
  args.AddFlag("gamma", "threshold", "FLOAT");
  args.AddPositional("input", "path");
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(args.Parse(2, argv).ok());
  EXPECT_TRUE(args.help_requested());
  const std::string help = args.HelpText();
  EXPECT_NE(help.find("description text"), std::string::npos);
  EXPECT_NE(help.find("--gamma"), std::string::npos);
  EXPECT_NE(help.find("<input>"), std::string::npos);
}

std::vector<FlippingPattern> MineToy(ItemDictionary** dict_out,
                                     testutil::Dataset* data) {
  *data = testutil::PaperToyDataset();
  MiningConfig config;
  config.gamma = 0.6;
  config.epsilon = 0.35;
  config.min_support = {0.1, 0.1, 0.1};
  auto result = FlipperMiner::Run(data->db, data->taxonomy, config);
  EXPECT_TRUE(result.ok());
  *dict_out = &data->dict;
  return result->patterns;
}

TEST(PatternIo, CsvExport) {
  testutil::Dataset data;
  ItemDictionary* dict = nullptr;
  auto patterns = MineToy(&dict, &data);
  ASSERT_EQ(patterns.size(), 1u);

  std::ostringstream oss;
  ASSERT_TRUE(WritePatternsCsv(patterns, dict, oss).ok());
  const std::string csv = oss.str();
  // Header + 3 chain rows.
  EXPECT_NE(csv.find("pattern_id,level,itemset,support,corr,label"),
            std::string::npos);
  EXPECT_NE(csv.find("a11|b11"), std::string::npos);
  EXPECT_NE(csv.find("POS"), std::string::npos);
  EXPECT_NE(csv.find("NEG"), std::string::npos);
  EXPECT_EQ(static_cast<int>(std::count(csv.begin(), csv.end(), '\n')),
            4);
}

TEST(PatternIo, JsonExport) {
  testutil::Dataset data;
  ItemDictionary* dict = nullptr;
  auto patterns = MineToy(&dict, &data);

  std::ostringstream oss;
  ASSERT_TRUE(WritePatternsJson(patterns, dict, oss).ok());
  const std::string json = oss.str();
  EXPECT_NE(json.find("\"leaf\": [\"a11\", \"b11\"]"), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"NEG\""), std::string::npos);
  EXPECT_NE(json.find("\"flip_gap\""), std::string::npos);
  // Balanced brackets (crude structural check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(PatternIo, JsonEscapesSpecialNames) {
  ItemDictionary dict;
  const ItemId weird = dict.Intern("item\"with\\quote");
  const ItemId plain = dict.Intern("plain");
  FlippingPattern p;
  p.leaf_itemset = Itemset::Pair(weird, plain);
  p.chain.push_back({1, p.leaf_itemset, 5, 0.9, Label::kPositive});
  std::ostringstream oss;
  ASSERT_TRUE(WritePatternsJson({p}, &dict, oss).ok());
  EXPECT_NE(oss.str().find("item\\\"with\\\\quote"), std::string::npos);
}

TEST(PatternIo, FileWriteFailsOnBadPath) {
  EXPECT_FALSE(
      WritePatternsCsvFile({}, nullptr, "/nonexistent/dir/p.csv").ok());
  EXPECT_FALSE(
      WritePatternsJsonFile({}, nullptr, "/nonexistent/dir/p.json").ok());
}

/// Drives RunFlipperCli as a subprocess would, capturing both streams.
int RunCli(const std::vector<std::string>& cli_args, std::string* out_text,
           std::string* err_text) {
  std::vector<const char*> argv;
  argv.push_back("flipper_cli");
  for (const std::string& arg : cli_args) argv.push_back(arg.c_str());
  std::ostringstream out;
  std::ostringstream err;
  const int rc = RunFlipperCli(static_cast<int>(argv.size()), argv.data(),
                               out, err);
  *out_text = out.str();
  *err_text = err.str();
  return rc;
}

class FlipperCliEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    testutil::Dataset data = testutil::PaperToyDataset();
    basket_ = ::testing::TempDir() + "cli_e2e.basket";
    taxonomy_ = ::testing::TempDir() + "cli_e2e.taxonomy";
    store_ = ::testing::TempDir() + "cli_e2e.fdb";
    ASSERT_TRUE(WriteTaxonomyFile(data.taxonomy, data.dict, taxonomy_).ok());
    ASSERT_TRUE(WriteBasketFile(data.db, data.dict, basket_).ok());
  }

  std::string basket_;
  std::string taxonomy_;
  std::string store_;
  std::string out_;
  std::string err_;
};

TEST_F(FlipperCliEndToEnd, ConvertInspectAndMineAreBitIdentical) {
  ASSERT_EQ(RunCli({"convert", basket_, taxonomy_, store_}, &out_, &err_),
            0)
      << err_;
  EXPECT_NE(out_.find("wrote " + store_), std::string::npos);

  ASSERT_EQ(RunCli({"inspect", store_}, &out_, &err_), 0) << err_;
  EXPECT_NE(out_.find("FlipperStore v2"), std::string::npos);
  EXPECT_NE(out_.find("checksums: OK"), std::string::npos);
  EXPECT_NE(out_.find("txn_items"), std::string::npos);
  EXPECT_NE(out_.find("catalog:"), std::string::npos);

  const std::vector<std::string> mining_flags = {
      "--gamma=0.6", "--epsilon=0.35", "--minsup=0.1,0.1,0.1",
      "--format=csv"};
  std::vector<std::string> from_text = {"mine", basket_, taxonomy_};
  from_text.insert(from_text.end(), mining_flags.begin(),
                   mining_flags.end());
  std::string text_csv;
  ASSERT_EQ(RunCli(from_text, &text_csv, &err_), 0) << err_;
  EXPECT_NE(text_csv.find("a11|b11"), std::string::npos);

  std::vector<std::string> from_store = {"mine", "--input", store_};
  from_store.insert(from_store.end(), mining_flags.begin(),
                    mining_flags.end());
  std::string store_csv;
  ASSERT_EQ(RunCli(from_store, &store_csv, &err_), 0) << err_;
  EXPECT_EQ(text_csv, store_csv);

  // Legacy spelling (no subcommand) still mines.
  std::vector<std::string> legacy = {basket_, taxonomy_};
  legacy.insert(legacy.end(), mining_flags.begin(), mining_flags.end());
  std::string legacy_csv;
  ASSERT_EQ(RunCli(legacy, &legacy_csv, &err_), 0) << err_;
  EXPECT_EQ(text_csv, legacy_csv);

  // Skipping toggle does not change the output.
  std::vector<std::string> no_skip = {"mine", "--input", store_,
                                      "--segment-skipping=off"};
  no_skip.insert(no_skip.end(), mining_flags.begin(),
                 mining_flags.end());
  std::string no_skip_csv;
  ASSERT_EQ(RunCli(no_skip, &no_skip_csv, &err_), 0) << err_;
  EXPECT_EQ(text_csv, no_skip_csv);
}

TEST_F(FlipperCliEndToEnd, ConvertFromStoreIsAValidatedReencode) {
  ASSERT_EQ(RunCli({"convert", basket_, taxonomy_, store_}, &out_, &err_),
            0)
      << err_;
  std::ifstream original_file(store_, std::ios::binary);
  std::ostringstream original_bytes;
  original_bytes << original_file.rdbuf();

  const std::string copy = ::testing::TempDir() + "cli_e2e_copy.fdb";
  ASSERT_EQ(RunCli({"convert", "--from-fdb", store_, copy}, &out_, &err_),
            0)
      << err_;
  EXPECT_NE(out_.find("re-encoded"), std::string::npos);

  // The writer is deterministic and the input's segment size carries
  // over, so a fresh store re-encodes to its own bytes.
  std::ifstream copy_file(copy, std::ios::binary);
  std::ostringstream copy_bytes;
  copy_bytes << copy_file.rdbuf();
  EXPECT_EQ(original_bytes.str(), copy_bytes.str());

  // An explicit --segment-txns re-cuts the shards.
  const std::string resharded =
      ::testing::TempDir() + "cli_e2e_reshard.fdb";
  ASSERT_EQ(RunCli({"convert", "--from-fdb", copy, resharded,
                    "--segment-txns=4"},
                   &out_, &err_),
            0)
      << err_;
  ASSERT_EQ(RunCli({"inspect", resharded}, &out_, &err_), 0) << err_;
  EXPECT_NE(out_.find("segments: 3"), std::string::npos);  // 10 txns / 4

  // An in-place re-encode would truncate the store while its mapping
  // is being read — it must be refused up front (through differing
  // spellings of the same path too), leaving the file intact.
  std::ifstream before_file(copy, std::ios::binary);
  std::ostringstream before_bytes;
  before_bytes << before_file.rdbuf();
  before_file.close();
  EXPECT_EQ(RunCli({"convert", "--from-fdb", copy, copy}, &out_, &err_),
            2);
  EXPECT_NE(err_.find("onto itself"), std::string::npos);
  const std::string alias =
      ::testing::TempDir() + "./cli_e2e_copy.fdb";  // same file
  EXPECT_EQ(RunCli({"convert", "--from-fdb", copy, alias,
                    "--segment-txns=4"},
                   &out_, &err_),
            2);
  std::ifstream after_file(copy, std::ios::binary);
  std::ostringstream after_bytes;
  after_bytes << after_file.rdbuf();
  EXPECT_EQ(before_bytes.str(), after_bytes.str());

  // A corrupt input must fail the conversion — otherwise the re-encode
  // would launder bitrot into a freshly checksummed file.
  // 16 consecutive bytes cannot be all inter-section padding (at most
  // 7 pad bytes per boundary), so some checksummed payload is hit.
  std::string bytes = original_bytes.str();
  for (size_t i = 0; i < 16; ++i) bytes[bytes.size() / 2 + i] ^= 0x1;
  std::ofstream corrupt(store_, std::ios::binary | std::ios::trunc);
  corrupt.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size()));
  corrupt.close();
  EXPECT_NE(RunCli({"convert", "--from-fdb", store_, copy}, &out_, &err_),
            0);
}

TEST_F(FlipperCliEndToEnd, ConvertCompactsAnAppendedStore) {
  // Two append sessions leave two extra column block pairs, two
  // superseded copies of the small sections and the table in a commit
  // trailer; convert --from-fdb rewrites the store as a fresh one.
  const testutil::Dataset data = testutil::PaperToyDataset();
  const std::string appended = ::testing::TempDir() + "cli_e2e_grown.fdb";
  {
    auto writer = storage::StoreWriter::Create(appended);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (TxnId t = 0; t < 4; ++t) {
      ASSERT_TRUE(writer->Append(data.db.Get(t)).ok());
    }
    ASSERT_TRUE(writer->Finish(data.dict, data.taxonomy).ok());
  }
  for (const auto& [from, to] : {std::pair<TxnId, TxnId>{4, 7}, {7, 10}}) {
    auto writer = storage::StoreWriter::OpenAppend(appended);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (TxnId t = from; t < to; ++t) {
      ASSERT_TRUE(writer->Append(data.db.Get(t)).ok());
    }
    ASSERT_TRUE(writer->Finish(data.dict, data.taxonomy).ok());
  }

  const std::string compacted =
      ::testing::TempDir() + "cli_e2e_compacted.fdb";
  ASSERT_EQ(RunCli({"convert", "--from-fdb", appended, compacted}, &out_,
                   &err_),
            0)
      << err_;
  auto before = storage::StoreReader::Open(appended);
  auto after = storage::StoreReader::Open(compacted);
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(before->header().section_count,
            storage::kMinSectionCount + 4);
  EXPECT_EQ(after->header().section_count, storage::kMinSectionCount);
  EXPECT_EQ(after->header().table_offset, 0u);
  EXPECT_LT(after->file_size(), before->file_size());

  const auto mine = [&](const std::string& path) {
    std::string csv;
    EXPECT_EQ(RunCli({"mine", "--input", path, "--gamma=0.6",
                      "--epsilon=0.35", "--minsup=0.1,0.1,0.1",
                      "--format=csv"},
                     &csv, &err_),
              0)
        << err_;
    return csv;
  };
  const std::string appended_csv = mine(appended);
  EXPECT_NE(appended_csv.find("a11|b11"), std::string::npos);
  EXPECT_EQ(mine(compacted), appended_csv);
}

TEST_F(FlipperCliEndToEnd, MineRejectsACorruptStore) {
  ASSERT_EQ(RunCli({"convert", basket_, taxonomy_, store_}, &out_, &err_),
            0)
      << err_;
  // Truncate the store mid-file.
  std::ifstream in(store_, std::ios::binary);
  std::ostringstream oss;
  oss << in.rdbuf();
  const std::string bytes = oss.str();
  std::ofstream trunc(store_, std::ios::binary | std::ios::trunc);
  trunc.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  trunc.close();

  EXPECT_EQ(RunCli({"mine", "--input", store_}, &out_, &err_), 1);
  EXPECT_NE(err_.find("error:"), std::string::npos);
  EXPECT_EQ(RunCli({"inspect", store_}, &out_, &err_), 1);
  EXPECT_NE(err_.find("error:"), std::string::npos);
  // A failed inspect explains itself with the per-section diagnosis
  // rather than a bare open error.
  EXPECT_NE(err_.find("diagnosis:"), std::string::npos);
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

/// One complete ("X") event of a Chrome trace.
struct TraceEvent {
  int tid = 0;
  double ts_us = 0;
  double dur_us = 0;
};

/// Every complete event named `name` in a trace written one event per
/// line (trace::Session::ExportChromeJson's layout).
std::vector<TraceEvent> EventsNamed(const std::string& trace,
                                    const std::string& name) {
  std::vector<TraceEvent> events;
  std::istringstream lines(trace);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"ph\":\"X\"") == std::string::npos ||
        line.find("\"name\":\"" + name + "\"") == std::string::npos) {
      continue;
    }
    const auto number = [&line](const std::string& field) {
      const size_t at = line.find("\"" + field + "\":");
      EXPECT_NE(at, std::string::npos) << field << " in " << line;
      return at == std::string::npos
                 ? 0.0
                 : std::stod(line.substr(at + field.size() + 3));
    };
    events.push_back({static_cast<int>(number("tid")), number("ts"),
                      number("dur")});
  }
  return events;
}

void DumpFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(FlipperCliEndToEnd, MineReportsTheStoreOpenStage) {
  ASSERT_EQ(RunCli({"convert", basket_, taxonomy_, store_}, &out_, &err_),
            0)
      << err_;
  const std::string trace_path = ::testing::TempDir() + "cli_open.json";
  const std::string metrics_path =
      ::testing::TempDir() + "cli_open_metrics.json";
  ASSERT_EQ(RunCli({"mine", "--input", store_, "--gamma=0.6",
                    "--epsilon=0.35", "--minsup=0.1", "--trace-out",
                    trace_path, "--metrics-json", metrics_path},
                   &out_, &err_),
            0)
      << err_;
  EXPECT_NE(out_.find("a11"), std::string::npos);
  // The open is a run stage: a stage.store_open_ms histogram next to
  // the miner's own stages, and a "store_open" stage span in the trace.
  const std::string metrics = SlurpFile(metrics_path);
  EXPECT_NE(metrics.find("\"stage.store_open_ms\""), std::string::npos);
  EXPECT_NE(metrics.find("\"stage.views_build_ms\""), std::string::npos);
  const std::string trace = SlurpFile(trace_path);
  EXPECT_NE(trace.find("\"name\":\"store_open\",\"cat\":\"stage\""),
            std::string::npos)
      << trace.substr(0, 400);
  EXPECT_NE(trace.find("\"name\":\"mine\""), std::string::npos);
  // The open's two passes are detail spans nested in it, once each.
  const std::vector<TraceEvent> open = EventsNamed(trace, "store_open");
  ASSERT_EQ(open.size(), 1u);
  for (const char* pass : {"store_decode", "store_check"}) {
    const std::vector<TraceEvent> spans = EventsNamed(trace, pass);
    ASSERT_EQ(spans.size(), 1u) << pass;
    EXPECT_EQ(spans[0].tid, open[0].tid) << pass;
    // Timestamps are printed to the nanosecond, in microseconds.
    EXPECT_GE(spans[0].ts_us + 0.001, open[0].ts_us) << pass;
    EXPECT_LE(spans[0].ts_us + spans[0].dur_us,
              open[0].ts_us + open[0].dur_us + 0.002)
        << pass;
  }

  // --threads 1 holds for the open too: no pool worker runs anything.
  ASSERT_EQ(RunCli({"mine", "--input", store_, "--gamma=0.6",
                    "--epsilon=0.35", "--minsup=0.1", "--threads=1",
                    "--trace-out", trace_path},
                   &out_, &err_),
            0)
      << err_;
  EXPECT_EQ(SlurpFile(trace_path).find("pool-worker"), std::string::npos);

  // Text input opens no store, so it reports no store_open stage.
  ASSERT_EQ(RunCli({"mine", basket_, taxonomy_, "--gamma=0.6",
                    "--epsilon=0.35", "--minsup=0.1", "--metrics-json",
                    metrics_path},
                   &out_, &err_),
            0)
      << err_;
  EXPECT_EQ(SlurpFile(metrics_path).find("stage.store_open_ms"),
            std::string::npos);
}

TEST_F(FlipperCliEndToEnd, ValidateAndRepairRecoverATornStore) {
  ASSERT_EQ(RunCli({"convert", basket_, taxonomy_, store_}, &out_, &err_),
            0)
      << err_;
  ASSERT_EQ(RunCli({"validate", store_}, &out_, &err_), 0) << out_;
  EXPECT_NE(out_.find(": valid ("), std::string::npos);
  EXPECT_NE(out_.find("front_header"), std::string::npos);
  EXPECT_NE(out_.find("section_table"), std::string::npos);

  // Tear the file the way a crashed append session would: committed
  // bytes plus an uncommitted tail.
  const std::string base_bytes = SlurpFile(store_);
  DumpFile(store_, base_bytes + std::string(41, '\x7f'));

  EXPECT_EQ(RunCli({"validate", store_}, &out_, &err_), 1);
  EXPECT_NE(out_.find("corrupt but repairable"), std::string::npos);
  EXPECT_NE(out_.find("torn_tail"), std::string::npos);
  // --quiet keeps the verdict but drops the finding lines (they carry
  // "@ [offset, offset+size)" ranges).
  EXPECT_EQ(RunCli({"validate", store_, "--quiet"}, &out_, &err_), 1);
  EXPECT_NE(out_.find("corrupt but repairable"), std::string::npos);
  EXPECT_EQ(out_.find("@ ["), std::string::npos);

  // Inspect refuses the torn file but says why and how to fix it.
  EXPECT_EQ(RunCli({"inspect", store_}, &out_, &err_), 1);
  EXPECT_NE(err_.find("diagnosis:"), std::string::npos);
  EXPECT_NE(err_.find("torn_tail"), std::string::npos);
  EXPECT_NE(err_.find("repair"), std::string::npos);

  // Dry run (the default) plans the truncation but modifies nothing.
  EXPECT_EQ(RunCli({"repair", store_}, &out_, &err_), 0) << err_;
  EXPECT_NE(out_.find("would truncate 41 torn bytes"), std::string::npos);
  EXPECT_NE(out_.find("dry run: nothing modified"), std::string::npos);
  EXPECT_EQ(SlurpFile(store_), base_bytes + std::string(41, '\x7f'));
  EXPECT_EQ(RunCli({"repair", store_, "--apply", "--dry-run"},
                   &out_, &err_),
            2);
  EXPECT_NE(err_.find("mutually exclusive"), std::string::npos);

  // --apply restores the committed bytes exactly.
  EXPECT_EQ(RunCli({"repair", store_, "--apply"}, &out_, &err_), 0)
      << err_;
  EXPECT_NE(out_.find("repaired:"), std::string::npos);
  EXPECT_EQ(SlurpFile(store_), base_bytes);
  EXPECT_EQ(RunCli({"validate", store_}, &out_, &err_), 0) << out_;
  EXPECT_EQ(RunCli({"mine", "--input", store_, "--gamma=0.6",
                    "--epsilon=0.35", "--minsup=0.1,0.1,0.1"},
                   &out_, &err_),
            0)
      << err_;

  // Repairing a clean store is a no-op.
  EXPECT_EQ(RunCli({"repair", store_, "--apply"}, &out_, &err_), 0);
  EXPECT_NE(out_.find("already clean"), std::string::npos);
  EXPECT_EQ(SlurpFile(store_), base_bytes);
}

TEST_F(FlipperCliEndToEnd, ValidateAndRepairRefuseGarbage) {
  const std::string garbage = ::testing::TempDir() + "cli_garbage.fdb";
  DumpFile(garbage, std::string(4096, '\x5a'));
  EXPECT_EQ(RunCli({"validate", garbage}, &out_, &err_), 3);
  EXPECT_NE(out_.find("UNRECOVERABLE"), std::string::npos);
  EXPECT_EQ(RunCli({"repair", garbage, "--apply"}, &out_, &err_), 3);
  EXPECT_NE(err_.find("unrecoverable"), std::string::npos);
  // Refusal never modifies the file.
  EXPECT_EQ(SlurpFile(garbage), std::string(4096, '\x5a'));

  EXPECT_EQ(RunCli({"validate", ::testing::TempDir() + "missing.fdb"},
                   &out_, &err_),
            2);
  EXPECT_NE(err_.find("error:"), std::string::npos);
}

TEST_F(FlipperCliEndToEnd, DatagenWritesAMineableStore) {
  const std::string generated = ::testing::TempDir() + "cli_datagen.fdb";
  ASSERT_EQ(RunCli({"datagen", "groceries", generated, "--txns=400",
                    "--segment-txns=128"},
                   &out_, &err_),
            0)
      << err_;
  EXPECT_NE(out_.find("wrote " + generated), std::string::npos);

  ASSERT_EQ(RunCli({"inspect", generated}, &out_, &err_), 0) << err_;
  EXPECT_NE(out_.find("checksums: OK"), std::string::npos);
  EXPECT_NE(out_.find("segments: 4"), std::string::npos);  // 400/128

  EXPECT_EQ(RunCli({"mine", "--input", generated, "--format=json"},
                   &out_, &err_),
            0)
      << err_;
  EXPECT_EQ(RunCli({"datagen", "nonsense", generated}, &out_, &err_), 2);
}

TEST_F(FlipperCliEndToEnd, UsageErrorsReturnTwo) {
  EXPECT_EQ(RunCli({"convert", "only_one_arg"}, &out_, &err_), 2);
  EXPECT_NE(err_.find("error:"), std::string::npos);
  EXPECT_EQ(RunCli({"inspect"}, &out_, &err_), 2);
  ASSERT_EQ(RunCli({"--help"}, &out_, &err_), 0);
  EXPECT_NE(out_.find("convert"), std::string::npos);
  EXPECT_NE(out_.find("datagen"), std::string::npos);

  // A removed execution knob is an unknown flag: exit 2 with usage.
  EXPECT_EQ(RunCli({"mine", basket_, taxonomy_, "--pipeline=off"}, &out_,
                   &err_),
            2);
  EXPECT_NE(err_.find("unknown flag --pipeline"), std::string::npos)
      << err_;
  EXPECT_NE(err_.find("flipper_cli mine"), std::string::npos) << err_;
  EXPECT_NE(err_.find("flags:"), std::string::npos) << err_;
}

TEST(ScanCells, ToggleDoesNotChangeResults) {
  testutil::Dataset data = testutil::RandomDataset(1234, 5, 3, 3, 600, 9);
  MiningConfig config;
  config.gamma = 0.45;
  config.epsilon = 0.2;
  config.min_support = {0.003, 0.002, 0.002};

  config.enable_scan_cells = true;
  auto with_scan = FlipperMiner::Run(data.db, data.taxonomy, config);
  ASSERT_TRUE(with_scan.ok());
  config.enable_scan_cells = false;
  auto without_scan = FlipperMiner::Run(data.db, data.taxonomy, config);
  ASSERT_TRUE(without_scan.ok());
  EXPECT_TRUE(SamePatterns(with_scan->patterns, without_scan->patterns));
}

}  // namespace
}  // namespace flipper
