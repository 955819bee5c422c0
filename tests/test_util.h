// Shared fixtures: the paper's Figure-4 toy dataset and randomized
// dataset construction for differential tests.

#ifndef FLIPPER_TESTS_TEST_UTIL_H_
#define FLIPPER_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/level_views.h"
#include "data/segment_catalog.h"
#include "data/item_dictionary.h"
#include "data/transaction_db.h"
#include "taxonomy/taxonomy.h"
#include "taxonomy/taxonomy_builder.h"

namespace flipper {
namespace testutil {

struct Dataset {
  ItemDictionary dict;
  Taxonomy taxonomy;
  TransactionDb db;
};

/// The toy example of the paper's Figure 4: 8 leaf items in two
/// 3-level branches and 10 transactions. With gamma = 0.6 and
/// epsilon = 0.35 the only flipping pattern is {a11, b11} (Figure 5).
inline Dataset PaperToyDataset() {
  Dataset out;
  TaxonomyBuilder builder;
  auto intern = [&](const char* name) { return out.dict.Intern(name); };
  const ItemId a = intern("a");
  const ItemId b = intern("b");
  builder.AddRoot(a);
  builder.AddRoot(b);
  auto edge = [&](ItemId parent, const char* child) {
    const ItemId id = intern(child);
    FLIPPER_CHECK(builder.AddEdge(parent, id).ok());
    return id;
  };
  const ItemId a1 = edge(a, "a1");
  const ItemId a2 = edge(a, "a2");
  const ItemId b1 = edge(b, "b1");
  const ItemId b2 = edge(b, "b2");
  edge(a1, "a11");
  edge(a1, "a12");
  edge(a2, "a21");
  edge(a2, "a22");
  edge(b1, "b11");
  edge(b1, "b12");
  edge(b2, "b21");
  edge(b2, "b22");
  auto built = builder.Build();
  FLIPPER_CHECK(built.ok()) << built.status();
  out.taxonomy = std::move(built).value();

  auto add = [&](std::initializer_list<const char*> names) {
    std::vector<ItemId> items;
    for (const char* name : names) {
      auto id = out.dict.Find(name);
      FLIPPER_CHECK(id.ok());
      items.push_back(*id);
    }
    out.db.Add(items);
  };
  add({"a11", "a22", "b11", "b22"});  // D1
  add({"a11", "a21", "b11"});         // D2
  add({"a12", "a21"});                // D3
  add({"a12", "a22", "b21"});         // D4
  add({"a12", "a22", "b21"});         // D5
  add({"a12", "a21", "b22"});         // D6
  add({"a21", "b12"});                // D7
  add({"b12", "b21", "b22"});         // D8
  add({"b12", "b21"});                // D9
  add({"a22", "b12", "b22"});         // D10
  return out;
}

/// A random balanced taxonomy plus random transactions over its
/// leaves; used by the differential and property suites.
inline Dataset RandomDataset(uint64_t seed, uint32_t num_roots = 4,
                             uint32_t fanout = 2, uint32_t depth = 3,
                             uint32_t num_txns = 300,
                             uint32_t max_width = 6) {
  Dataset out;
  Rng rng(seed);
  TaxonomyBuilder builder;
  std::vector<ItemId> frontier;
  for (uint32_t r = 0; r < num_roots; ++r) {
    const ItemId id = out.dict.Intern("r" + std::to_string(r));
    builder.AddRoot(id);
    frontier.push_back(id);
  }
  for (uint32_t level = 2; level <= depth; ++level) {
    std::vector<ItemId> next;
    for (ItemId parent : frontier) {
      // Jitter the fanout a little so trees are not perfectly regular;
      // occasionally skip a child to create shallow leaves.
      const uint32_t children =
          fanout + (rng.Bernoulli(0.3) ? 1 : 0) -
          (fanout > 1 && rng.Bernoulli(0.2) ? 1 : 0);
      for (uint32_t c = 0; c < children; ++c) {
        const ItemId id = out.dict.Intern(
            std::string(out.dict.Name(parent)) + "." + std::to_string(c));
        FLIPPER_CHECK(builder.AddEdge(parent, id).ok());
        next.push_back(id);
      }
    }
    if (next.empty()) break;
    frontier = std::move(next);
  }
  auto built = builder.Build();
  FLIPPER_CHECK(built.ok()) << built.status();
  out.taxonomy = std::move(built).value();

  const std::vector<ItemId>& leaves = out.taxonomy.Leaves();
  std::vector<ItemId> txn;
  for (uint32_t t = 0; t < num_txns; ++t) {
    txn.clear();
    const uint32_t width =
        1 + static_cast<uint32_t>(rng.Below(max_width));
    for (uint32_t i = 0; i < width; ++i) {
      txn.push_back(leaves[rng.Below(leaves.size())]);
    }
    out.db.Add(txn);
  }
  return out;
}

/// Empty when the two databases hold the same transactions with the
/// same alphabet and width bounds; otherwise the first difference.
inline std::string DbDiff(const TransactionDb& a, const TransactionDb& b) {
  if (a.size() != b.size()) {
    return "size " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  if (a.alphabet_size() != b.alphabet_size()) {
    return "alphabet_size " + std::to_string(a.alphabet_size()) + " vs " +
           std::to_string(b.alphabet_size());
  }
  if (a.max_width() != b.max_width()) {
    return "max_width " + std::to_string(a.max_width()) + " vs " +
           std::to_string(b.max_width());
  }
  if (a.total_items() != b.total_items()) return "total_items differ";
  for (TxnId t = 0; t < a.size(); ++t) {
    const auto x = a.Get(t);
    const auto y = b.Get(t);
    if (!std::equal(x.begin(), x.end(), y.begin(), y.end())) {
      return "transaction " + std::to_string(t) + " differs";
    }
  }
  return "";
}

/// Empty when the two catalogs (either may be null) are identical.
inline std::string CatalogDiff(const SegmentCatalog* a,
                               const SegmentCatalog* b) {
  if ((a == nullptr) != (b == nullptr)) return "catalog presence differs";
  if (a == nullptr) return "";
  const auto same = [](auto x, auto y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  if (!same(a->boundaries(), b->boundaries())) return "catalog boundaries";
  if (a->bitset_words() != b->bitset_words()) return "catalog bitset words";
  if (!same(a->tracked_ids(), b->tracked_ids())) return "catalog tracked ids";
  for (size_t seg = 0; seg < a->num_segments(); ++seg) {
    if (a->min_item(seg) != b->min_item(seg) ||
        a->max_item(seg) != b->max_item(seg) ||
        !same(a->segment_bits(seg), b->segment_bits(seg)) ||
        !same(a->segment_tracked_supports(seg),
              b->segment_tracked_supports(seg))) {
      return "catalog segment " + std::to_string(seg);
    }
  }
  return "";
}

/// Empty when every level of the two views holds the same database,
/// supports, width histogram and catalog; otherwise the first
/// difference, prefixed with its level.
inline std::string ViewsDiff(const LevelViews& a, const LevelViews& b) {
  if (a.height() != b.height()) return "height differs";
  if (a.num_transactions() != b.num_transactions()) {
    return "num_transactions differs";
  }
  for (int h = 1; h <= a.height(); ++h) {
    const LevelData& x = a.Level(h);
    const LevelData& y = b.Level(h);
    const std::string level = "level " + std::to_string(h) + ": ";
    if (x.level != y.level) return level + "level tag";
    if (const std::string d = DbDiff(x.db, y.db); !d.empty()) {
      return level + d;
    }
    if (x.item_support != y.item_support) return level + "item_support";
    if (x.width_hist != y.width_hist) return level + "width_hist";
    if (const std::string d =
            CatalogDiff(x.catalog.get(), y.catalog.get());
        !d.empty()) {
      return level + d;
    }
  }
  return "";
}

}  // namespace testutil
}  // namespace flipper

#endif  // FLIPPER_TESTS_TEST_UTIL_H_
