// Support-counting engines: CandidateTrie against brute force, and the
// horizontal vs. vertical SupportCounter agreement property.

#include <gtest/gtest.h>

#include <unordered_set>

#include <vector>

#include "common/rng.h"
#include "core/candidate_trie.h"
#include "core/level_views.h"
#include "core/support_counting.h"
#include "test_util.h"

namespace flipper {
namespace {

class TrieProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrieProperty, CountsMatchBruteForce) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    // Random database.
    TransactionDb db;
    std::vector<ItemId> txn;
    const ItemId alphabet = 20;
    for (int t = 0; t < 200; ++t) {
      txn.clear();
      const int width = 1 + static_cast<int>(rng.Below(9));
      for (int i = 0; i < width; ++i) {
        txn.push_back(static_cast<ItemId>(rng.Below(alphabet)));
      }
      db.Add(txn);
    }
    // Random distinct candidates of one size k.
    const int k = 2 + static_cast<int>(rng.Below(3));
    std::vector<Itemset> candidates;
    std::unordered_set<Itemset, ItemsetHash> seen;
    for (int c = 0; c < 60; ++c) {
      Itemset s;
      while (s.size() < k) {
        s.Insert(static_cast<ItemId>(rng.Below(alphabet)));
      }
      if (seen.insert(s).second) candidates.push_back(s);
    }

    CandidateTrie trie(candidates);
    EXPECT_EQ(trie.k(), k);
    EXPECT_EQ(trie.num_candidates(), candidates.size());
    for (TxnId t = 0; t < db.size(); ++t) {
      trie.CountTransaction(db.Get(t));
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      EXPECT_EQ(trie.CountOf(i), db.CountSupport(candidates[i]))
          << candidates[i].ToString();
    }
    EXPECT_GT(trie.MemoryBytes(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieProperty,
                         ::testing::Values(101, 202, 303));

TEST(Trie, EmptyCandidates) {
  CandidateTrie trie(std::span<const Itemset>{});
  EXPECT_EQ(trie.num_candidates(), 0u);
  const ItemId txn[] = {1, 2, 3};
  trie.CountTransaction(txn);  // must not crash
}

TEST(Trie, SingletonCandidates) {
  std::vector<Itemset> candidates = {Itemset{3}, Itemset{1}};
  CandidateTrie trie(candidates);
  const ItemId txn[] = {1, 2, 3};
  trie.CountTransaction(txn);
  EXPECT_EQ(trie.CountOf(0), 1u);
  EXPECT_EQ(trie.CountOf(1), 1u);
}

class CounterAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CounterAgreement, HorizontalEqualsVerticalAcrossLevels) {
  testutil::Dataset data = testutil::RandomDataset(GetParam());
  auto views_or = LevelViews::Build(data.db, data.taxonomy);
  ASSERT_TRUE(views_or.ok()) << views_or.status();
  LevelViews views = std::move(views_or).value();

  Rng rng(GetParam() ^ 0x1234);
  auto horizontal = MakeCounter(CounterKind::kHorizontal);
  auto vertical = MakeCounter(CounterKind::kVertical);
  for (int h = 1; h <= views.height(); ++h) {
    const auto& nodes = data.taxonomy.NodesAtLevel(h);
    std::vector<Itemset> candidates;
    std::unordered_set<Itemset, ItemsetHash> seen;
    for (int c = 0; c < 40; ++c) {
      Itemset s;
      const int k = 2 + static_cast<int>(rng.Below(2));
      while (s.size() < k) {
        s.Insert(nodes[rng.Below(nodes.size())]);
      }
      if (seen.insert(s).second) candidates.push_back(s);
    }
    std::vector<uint32_t> sup_h;
    std::vector<uint32_t> sup_v;
    ASSERT_TRUE(horizontal->Count(&views, h, candidates, &sup_h).ok());
    ASSERT_TRUE(vertical->Count(&views, h, candidates, &sup_v).ok());
    EXPECT_EQ(sup_h, sup_v) << "level " << h;
    // And both match the naive scan.
    for (size_t i = 0; i < candidates.size(); ++i) {
      EXPECT_EQ(sup_h[i], views.Level(h).db.CountSupport(candidates[i]));
    }
  }
  EXPECT_GT(horizontal->num_db_scans(), 0u);
  EXPECT_EQ(vertical->num_db_scans(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CounterAgreement,
                         ::testing::Values(7, 8, 9));

}  // namespace
}  // namespace flipper
