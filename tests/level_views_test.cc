// LevelViews::Build: the fused one-pass build must equal a reference
// assembled level by level from the serial building blocks (Generalize,
// ItemFrequencies, a width recount and a fresh SegmentCatalog::Build)
// on random taxonomies — shallow leaves, sparse shuffled ids, empty
// transactions, an empty database and a single level included — at
// every thread count; its validation error must name the lowest bad
// transaction whatever the sharding; and the leaf level must be the
// leaf database itself (shared when borrowed from a store).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/level_views.h"
#include "data/item_dictionary.h"
#include "data/segment_catalog.h"
#include "storage/store_reader.h"
#include "storage/store_writer.h"
#include "taxonomy/taxonomy_builder.h"
#include "test_util.h"

namespace flipper {
namespace {

/// Thread counts swept: serial, 2, 4, and the hardware count (0).
const int kThreadCounts[] = {1, 2, 4, 0};

/// A random taxonomy of exactly `height` levels. Node ids are a
/// shuffled, sparse subset of [0, 2 * nodes), so ancestors are not
/// monotone in leaf ids and some ids below id_space() are not nodes;
/// internal nodes below the top may get no children, which makes
/// shallow leaves.
Taxonomy RandomTaxonomy(Rng* rng, int height) {
  // Shape first, over dense indexes: parent_of[i] (-1 for roots).
  std::vector<int> parent_of;
  std::vector<int> frontier;
  const int roots = 2 + static_cast<int>(rng->Below(4));
  for (int r = 0; r < roots; ++r) {
    frontier.push_back(static_cast<int>(parent_of.size()));
    parent_of.push_back(-1);
  }
  for (int level = 2; level <= height; ++level) {
    std::vector<int> next;
    for (size_t i = 0; i < frontier.size(); ++i) {
      // The first node always continues, so the tree reaches `height`.
      const int children = static_cast<int>(rng->Below(4)) +
                           (i == 0 ? 1 : 0);
      for (int c = 0; c < children; ++c) {
        next.push_back(static_cast<int>(parent_of.size()));
        parent_of.push_back(frontier[i]);
      }
    }
    frontier = std::move(next);
  }
  std::vector<ItemId> ids(parent_of.size() * 2);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<ItemId>(i);
  rng->Shuffle(&ids);
  TaxonomyBuilder builder;
  for (size_t i = 0; i < parent_of.size(); ++i) {
    if (parent_of[i] < 0) {
      builder.AddRoot(ids[i]);
    } else {
      EXPECT_TRUE(builder.AddEdge(ids[static_cast<size_t>(parent_of[i])],
                                  ids[i])
                      .ok());
    }
  }
  auto built = builder.Build();
  EXPECT_TRUE(built.ok()) << built.status();
  EXPECT_EQ(built->height(), height);
  return std::move(built).value();
}

/// `num_txns` transactions of 0..max_width random leaves (so some are
/// empty).
TransactionDb RandomTransactions(Rng* rng, const Taxonomy& taxonomy,
                                 uint32_t num_txns, uint32_t max_width) {
  const std::vector<ItemId>& leaves = taxonomy.Leaves();
  TransactionDb db;
  std::vector<ItemId> txn;
  for (uint32_t t = 0; t < num_txns; ++t) {
    txn.clear();
    const auto width = static_cast<uint32_t>(rng->Below(max_width + 1));
    for (uint32_t i = 0; i < width; ++i) {
      txn.push_back(leaves[rng->Below(leaves.size())]);
    }
    db.Add(txn);
  }
  return db;
}

/// One level as the serial building blocks produce it.
struct ReferenceLevel {
  TransactionDb db;
  std::vector<uint32_t> item_support;
  std::vector<uint32_t> width_hist;
  std::shared_ptr<const SegmentCatalog> catalog;
};

std::vector<ReferenceLevel> BuildReference(
    const TransactionDb& leaf_db, const Taxonomy& taxonomy,
    const LevelViews::BuildOptions& options) {
  const bool catalogs = options.build_catalogs && !leaf_db.empty();
  const SegmentCatalog* leaf_catalog = leaf_db.segment_catalog().get();
  std::vector<uint64_t> boundaries;
  if (leaf_catalog != nullptr) {
    boundaries.assign(leaf_catalog->boundaries().begin(),
                      leaf_catalog->boundaries().end());
  } else {
    boundaries = SegmentCatalog::UniformBoundaries(leaf_db.size(),
                                                   options.segment_txns);
  }
  std::vector<ReferenceLevel> levels;
  for (int h = 1; h <= taxonomy.height(); ++h) {
    ReferenceLevel level;
    level.db = leaf_db.Generalize(
        taxonomy.LevelMap(h, leaf_db.alphabet_size()));
    const std::vector<uint32_t> freq = level.db.ItemFrequencies();
    level.item_support.assign(
        std::max(freq.size(), taxonomy.id_space()), 0);
    std::copy(freq.begin(), freq.end(), level.item_support.begin());
    level.width_hist.assign(level.db.max_width() + 1, 0);
    for (TxnId t = 0; t < level.db.size(); ++t) {
      ++level.width_hist[level.db.Get(t).size()];
    }
    if (catalogs && h == taxonomy.height() && leaf_catalog != nullptr) {
      level.catalog = leaf_db.segment_catalog();
    } else if (catalogs) {
      level.catalog = std::make_shared<SegmentCatalog>(
          SegmentCatalog::Build(level.db, boundaries));
    }
    levels.push_back(std::move(level));
  }
  return levels;
}

/// Empty when `views` matches the reference level for level.
std::string DiffFromReference(const LevelViews& views,
                              const std::vector<ReferenceLevel>& ref) {
  if (views.height() != static_cast<int>(ref.size())) {
    return "height " + std::to_string(views.height()) + " vs " +
           std::to_string(ref.size());
  }
  uint32_t max_universal = ref.empty() ? 0 : UINT32_MAX;
  for (int h = 1; h <= views.height(); ++h) {
    const LevelData& got = views.Level(h);
    const ReferenceLevel& want = ref[static_cast<size_t>(h - 1)];
    const std::string level = "level " + std::to_string(h) + ": ";
    if (got.level != h) return level + "level tag";
    if (const std::string d = testutil::DbDiff(got.db, want.db);
        !d.empty()) {
      return level + d;
    }
    if (got.item_support != want.item_support) {
      return level + "item_support";
    }
    if (got.width_hist != want.width_hist) return level + "width_hist";
    if (const std::string d = testutil::CatalogDiff(got.catalog.get(),
                                                    want.catalog.get());
        !d.empty()) {
      return level + d;
    }
    max_universal = std::min(max_universal, want.db.max_width());
  }
  if (views.MaxUniversalWidth() != max_universal) {
    return "MaxUniversalWidth";
  }
  return "";
}

/// Builds at every thread count, with and without catalogs, and holds
/// each result against the reference.
void ExpectMatchesReference(const TransactionDb& db,
                            const Taxonomy& taxonomy,
                            const std::string& label) {
  for (const bool catalogs : {false, true}) {
    LevelViews::BuildOptions options;
    options.build_catalogs = catalogs;
    options.segment_txns = 500;
    const std::vector<ReferenceLevel> ref =
        BuildReference(db, taxonomy, options);
    auto serial = LevelViews::Build(db, taxonomy, nullptr, options);
    ASSERT_TRUE(serial.ok()) << label << ": " << serial.status();
    EXPECT_EQ(DiffFromReference(*serial, ref), "")
        << label << ", no pool, catalogs " << catalogs;
    for (const int threads : kThreadCounts) {
      ThreadPool pool(threads);
      auto views = LevelViews::Build(db, taxonomy, &pool, options);
      ASSERT_TRUE(views.ok()) << label << ": " << views.status();
      EXPECT_EQ(views->num_transactions(), db.size());
      EXPECT_EQ(DiffFromReference(*views, ref), "")
          << label << ", threads " << pool.num_threads() << ", catalogs "
          << catalogs;
    }
  }
}

class LevelViewsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LevelViewsProperty, BuildEqualsSerialReference) {
  Rng rng(GetParam());
  for (int height = 1; height <= 5; ++height) {
    const Taxonomy taxonomy = RandomTaxonomy(&rng, height);
    // Small databases run one shard; 5000 transactions split into
    // several at 2+ threads.
    for (const uint32_t num_txns : {1u, 37u, 5000u}) {
      const TransactionDb db =
          RandomTransactions(&rng, taxonomy, num_txns, /*max_width=*/9);
      ExpectMatchesReference(db, taxonomy,
                             "seed " + std::to_string(GetParam()) +
                                 ", height " + std::to_string(height) +
                                 ", txns " + std::to_string(num_txns));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LevelViewsProperty,
                         ::testing::Values(1, 2, 3, 4));

TEST(LevelViews, EmptyDatabaseAndSingleLevel) {
  Rng rng(11);
  const Taxonomy deep = RandomTaxonomy(&rng, 4);
  const TransactionDb empty;
  ExpectMatchesReference(empty, deep, "empty db");
  auto views = LevelViews::Build(empty, deep);
  ASSERT_TRUE(views.ok()) << views.status();
  ASSERT_EQ(views->height(), 4);
  for (int h = 1; h <= 4; ++h) {
    EXPECT_TRUE(views->Level(h).db.empty());
    EXPECT_EQ(views->Level(h).width_hist, std::vector<uint32_t>{0});
  }
  EXPECT_EQ(views->MaxUniversalWidth(), 0u);

  // Only empty transactions: every level holds them, all of width 0.
  TransactionDb blanks;
  for (int t = 0; t < 3000; ++t) blanks.Add({});
  ExpectMatchesReference(blanks, deep, "empty transactions");

  // H = 1: the only level is the leaf level.
  const Taxonomy flat = RandomTaxonomy(&rng, 1);
  const TransactionDb db = RandomTransactions(&rng, flat, 3000, 5);
  ExpectMatchesReference(db, flat, "height 1");

  // A taxonomy with no nodes builds no levels, but still validates.
  EXPECT_TRUE(LevelViews::Build(blanks, Taxonomy()).ok());
  EXPECT_FALSE(LevelViews::Build(db, Taxonomy()).ok());
}

TEST(LevelViews, ErrorNamesTheLowestBadTransactionAtEveryThreadCount) {
  Rng rng(21);
  const Taxonomy taxonomy = RandomTaxonomy(&rng, 3);
  ItemId internal = kInvalidItem;
  ItemId gap = kInvalidItem;  // a non-node id inside the id space
  for (ItemId id = 0; id < taxonomy.id_space(); ++id) {
    if (taxonomy.IsNode(id) && !taxonomy.IsLeaf(id)) internal = id;
    if (!taxonomy.IsNode(id)) gap = id;
  }
  ASSERT_NE(internal, kInvalidItem);
  ASSERT_NE(gap, kInvalidItem);
  const auto beyond = static_cast<ItemId>(taxonomy.id_space() + 5);
  const std::string not_node = " that is not a taxonomy node";
  const std::string not_leaf =
      " that is an internal taxonomy node; transactions must contain "
      "leaves only";

  struct Plan {
    std::vector<std::pair<TxnId, ItemId>> bad;  // first entry is lowest
    std::string suffix;
  };
  // 8192 transactions: at 4 threads the planted ones fall in distinct
  // shards (2048 each), the lowest never in shard 0.
  const Plan plans[] = {
      {{{2100, gap}, {4500, internal}, {6500, beyond}}, not_node},
      {{{3000, internal}, {5000, gap}, {7000, internal}}, not_leaf},
      {{{4100, beyond}, {8000, internal}}, not_node},
  };
  const std::vector<ItemId>& leaves = taxonomy.Leaves();
  for (const Plan& plan : plans) {
    TransactionDb db;
    std::vector<ItemId> txn;
    for (TxnId t = 0; t < 8192; ++t) {
      txn.clear();
      const auto width = static_cast<uint32_t>(rng.Below(4));
      for (uint32_t i = 0; i < width; ++i) {
        txn.push_back(leaves[rng.Below(leaves.size())]);
      }
      for (const auto& [bad_txn, bad_item] : plan.bad) {
        if (bad_txn == t) txn.push_back(bad_item);
      }
      db.Add(txn);
    }
    const std::string expected =
        "transaction " + std::to_string(plan.bad[0].first) +
        " contains item " + std::to_string(plan.bad[0].second) +
        plan.suffix;
    auto serial = LevelViews::Build(db, taxonomy);
    ASSERT_FALSE(serial.ok());
    EXPECT_EQ(serial.status().message(), expected);
    for (const int threads : kThreadCounts) {
      ThreadPool pool(threads);
      auto views = LevelViews::Build(db, taxonomy, &pool);
      ASSERT_FALSE(views.ok()) << "threads " << pool.num_threads();
      EXPECT_EQ(views.status().message(), expected)
          << "threads " << pool.num_threads();
    }
  }
}

TEST(LevelViews, LeafLevelIsTheLeafDatabase) {
  Rng rng(31);
  const Taxonomy taxonomy = RandomTaxonomy(&rng, 3);
  const TransactionDb owned = RandomTransactions(&rng, taxonomy, 4000, 6);
  ItemDictionary dict;
  for (ItemId id = 0; id < taxonomy.id_space(); ++id) {
    dict.Intern("n" + std::to_string(id));
  }
  const std::string path = ::testing::TempDir() + "level_views_leaf.fdb";
  storage::StoreWriter::Options store_options;
  store_options.segment_txns = 512;
  ASSERT_TRUE(
      storage::WriteStoreFile(path, owned, dict, taxonomy, store_options)
          .ok());
  auto reader = storage::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_TRUE(reader->db().borrowed());
  ASSERT_NE(reader->catalog(), nullptr);

  // Store-borrowed: level H shares the reader's items and catalog, and
  // every level still equals the reference (store catalog boundaries).
  ExpectMatchesReference(reader->db(), reader->taxonomy(), "store");
  ThreadPool pool(4);
  LevelViews::BuildOptions options;
  auto views =
      LevelViews::Build(reader->db(), reader->taxonomy(), &pool, options);
  ASSERT_TRUE(views.ok()) << views.status();
  const LevelData& leaf = views->Level(3);
  EXPECT_TRUE(leaf.db.borrowed());
  EXPECT_EQ(leaf.db.Get(0).data(), reader->db().Get(0).data());
  EXPECT_EQ(leaf.catalog.get(), reader->catalog());

  // Owned: level H is a plain copy with the same contents.
  auto copied = LevelViews::Build(owned, taxonomy, &pool, options);
  ASSERT_TRUE(copied.ok()) << copied.status();
  EXPECT_FALSE(copied->Level(3).db.borrowed());
  EXPECT_NE(copied->Level(3).db.Get(0).data(), owned.Get(0).data());
  EXPECT_EQ(testutil::DbDiff(copied->Level(3).db, owned), "");
}

TEST(LevelViews, RejectsNonLeafAndUnknownItems) {
  testutil::Dataset data = testutil::PaperToyDataset();
  // A transaction containing an internal node must be rejected.
  TransactionDb bad_db;
  bad_db.Add({*data.dict.Find("a1")});
  EXPECT_FALSE(LevelViews::Build(bad_db, data.taxonomy).ok());

  // A transaction containing an id outside the taxonomy.
  TransactionDb unknown_db;
  unknown_db.Add({static_cast<ItemId>(data.taxonomy.id_space() + 5)});
  EXPECT_FALSE(LevelViews::Build(unknown_db, data.taxonomy).ok());
}

TEST(LevelViews, SingleSupportsMatchGeneralizedFrequencies) {
  testutil::Dataset data = testutil::PaperToyDataset();
  auto views = LevelViews::Build(data.db, data.taxonomy);
  ASSERT_TRUE(views.ok());
  EXPECT_EQ(views->height(), 3);
  EXPECT_EQ(views->num_transactions(), 10u);
  // Paper Example 3: sup(a) = 8, sup(b) = 9 at level 1.
  EXPECT_EQ(views->ItemSupport(1, *data.dict.Find("a")), 8u);
  EXPECT_EQ(views->ItemSupport(1, *data.dict.Find("b")), 9u);
  // Level 2: sup(a1) = 6, sup(b1) = 6.
  EXPECT_EQ(views->ItemSupport(2, *data.dict.Find("a1")), 6u);
  EXPECT_EQ(views->ItemSupport(2, *data.dict.Find("b1")), 6u);
  EXPECT_GE(views->MaxUniversalWidth(), 2u);
}

}  // namespace
}  // namespace flipper
