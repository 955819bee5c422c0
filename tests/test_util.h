// Shared fixtures: the paper's Figure-4 toy dataset, randomized
// dataset construction for differential tests, and serial reference
// implementations the sharded paths are checked against.

#ifndef FLIPPER_TESTS_TEST_UTIL_H_
#define FLIPPER_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/level_views.h"
#include "data/segment_catalog.h"
#include "data/item_dictionary.h"
#include "data/transaction_db.h"
#include "storage/format.h"
#include "storage/varint.h"
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

/// What the serial reference decode of a v2 store produced: the
/// status StoreReader::Open must return and, when it is OK, the
/// decoded CSR columns and catalog.
struct ReferenceStore {
  Status status;
  std::vector<uint64_t> offsets;
  std::vector<ItemId> items;
  std::optional<SegmentCatalog> catalog;
};

/// The serial v2 column decode and catalog check that the sharded
/// StoreReader::Open must agree with, error for error: one sequential
/// varint cursor per column, then the catalog section parsed and — when
/// `validate` — compared with a SegmentCatalog::Build rebuild from the
/// decoded items. `bytes` is a whole v2 store whose header, section
/// table and non-column sections are intact (only the columns and the
/// catalog are decoded here).
inline ReferenceStore ReferenceDecodeV2(const std::string& bytes,
                                        bool validate = true) {
  using storage::SectionEntry;
  using storage::SectionId;
  const auto corrupt = [](const std::string& what) {
    return Status::CorruptedData("store file: " + what);
  };
  ReferenceStore out;
  storage::FileHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  const uint64_t table_offset =
      h.table_offset == 0 ? sizeof(storage::FileHeader) : h.table_offset;
  std::vector<SectionEntry> table(h.section_count);
  std::memcpy(table.data(), bytes.data() + table_offset,
              table.size() * sizeof(SectionEntry));
  std::vector<const SectionEntry*> offsets_blocks;
  std::vector<const SectionEntry*> items_blocks;
  const SectionEntry* segments_entry = nullptr;
  const SectionEntry* catalog_entry = nullptr;
  for (const SectionEntry& e : table) {
    switch (SectionId(e.id)) {
      case SectionId::kTxnOffsets: offsets_blocks.push_back(&e); break;
      case SectionId::kTxnItems: items_blocks.push_back(&e); break;
      case SectionId::kSegments: segments_entry = &e; break;
      case SectionId::kSegCatalog: catalog_entry = &e; break;
      default: break;
    }
  }
  FLIPPER_CHECK(segments_entry != nullptr && catalog_entry != nullptr);
  std::vector<uint64_t> segments(h.num_segments + 1);
  std::memcpy(segments.data(), bytes.data() + segments_entry->offset,
              segments.size() * sizeof(uint64_t));

  // A sequential cursor over a column's blocks in table order; a varint
  // straddling two blocks decodes as truncated.
  struct Cursor {
    const std::string& bytes;
    const std::vector<const SectionEntry*>& blocks;
    size_t idx = 0;
    const uint8_t* pos = nullptr;
    const uint8_t* end = nullptr;
    void SkipExhausted() {
      while (pos == end && idx < blocks.size()) {
        const SectionEntry& e = *blocks[idx++];
        pos = reinterpret_cast<const uint8_t*>(bytes.data() + e.offset);
        end = pos + e.size;
      }
    }
    bool Get(uint64_t* value) {
      SkipExhausted();
      return storage::GetVarint(&pos, end, value);
    }
    bool Exhausted() {
      SkipExhausted();
      return pos == end;
    }
  };

  uint64_t offsets_bytes = 0;
  for (const SectionEntry* e : offsets_blocks) offsets_bytes += e->size;
  uint64_t items_bytes = 0;
  for (const SectionEntry* e : items_blocks) items_bytes += e->size;
  if (h.num_transactions > offsets_bytes) {
    out.status = corrupt("txn_offsets section is too small for " +
                         std::to_string(h.num_transactions) +
                         " transactions");
    return out;
  }
  if (h.num_items > items_bytes) {
    out.status = corrupt("txn_items section is too small for " +
                         std::to_string(h.num_items) + " items");
    return out;
  }

  // Widths column -> CSR offsets.
  out.offsets.push_back(0);
  {
    Cursor cursor{bytes, offsets_blocks};
    uint32_t max_width = 0;
    for (uint64_t t = 0; t < h.num_transactions; ++t) {
      uint64_t width = 0;
      if (!cursor.Get(&width)) {
        out.status = corrupt("truncated varint in txn_offsets at txn " +
                             std::to_string(t));
        return out;
      }
      if (width > std::numeric_limits<uint32_t>::max()) {
        out.status = corrupt("transaction width overflows at txn " +
                             std::to_string(t));
        return out;
      }
      out.offsets.push_back(out.offsets.back() + width);
      max_width = std::max(max_width, static_cast<uint32_t>(width));
    }
    if (!cursor.Exhausted()) {
      out.status = corrupt("txn_offsets section has trailing bytes");
      return out;
    }
    if (out.offsets.back() != h.num_items) {
      out.status = corrupt("transaction offsets do not span the items");
      return out;
    }
    if (max_width != h.max_width) {
      out.status = corrupt("max_width mismatch: header records " +
                           std::to_string(h.max_width) + ", data has " +
                           std::to_string(max_width));
      return out;
    }
  }

  // Delta-encoded items column.
  {
    Cursor cursor{bytes, items_blocks};
    uint64_t max_item = 0;
    bool any_item = false;
    for (uint64_t t = 0; t < h.num_transactions; ++t) {
      const uint64_t width = out.offsets[t + 1] - out.offsets[t];
      uint64_t item = 0;
      for (uint64_t i = 0; i < width; ++i) {
        uint64_t delta = 0;
        if (!cursor.Get(&delta)) {
          out.status = corrupt("truncated varint in txn_items at txn " +
                               std::to_string(t));
          return out;
        }
        if (i == 0) {
          item = delta;
        } else {
          if (delta == 0) {
            out.status = corrupt("items of txn " + std::to_string(t) +
                                 " are not sorted and duplicate-free");
            return out;
          }
          if (delta >= h.alphabet_size) {
            out.status = corrupt("item gap " + std::to_string(delta) +
                                 " out of range in txn " +
                                 std::to_string(t));
            return out;
          }
          item += delta;
        }
        if (item >= h.alphabet_size) {
          out.status = corrupt("item id " + std::to_string(item) +
                               " out of range in txn " + std::to_string(t));
          return out;
        }
        out.items.push_back(static_cast<ItemId>(item));
        max_item = std::max(max_item, item);
        any_item = true;
      }
    }
    if (!cursor.Exhausted()) {
      out.status = corrupt("txn_items section has trailing bytes");
      return out;
    }
    const uint64_t actual_alphabet = any_item ? max_item + 1 : 0;
    if (actual_alphabet != h.alphabet_size) {
      out.status = corrupt("alphabet_size mismatch: header records " +
                           std::to_string(h.alphabet_size) +
                           ", data has " + std::to_string(actual_alphabet));
      return out;
    }
  }

  // The catalog section: structural checks, then the rebuild compare.
  const SectionEntry& entry = *catalog_entry;
  if (entry.size < sizeof(storage::SegCatalogHeader)) {
    out.status = corrupt("seg_catalog section is too small for its header");
    return out;
  }
  storage::SegCatalogHeader ch;
  std::memcpy(&ch, bytes.data() + entry.offset, sizeof(ch));
  if (ch.bitset_words == 0 ||
      ch.bitset_words > storage::kMaxCatalogBitsetWords) {
    out.status = corrupt("seg_catalog bitset length is invalid (" +
                         std::to_string(ch.bitset_words) + " words)");
    return out;
  }
  if (ch.tracked_count > h.alphabet_size) {
    out.status = corrupt("seg_catalog tracks more items than the alphabet");
    return out;
  }
  const uint64_t expected =
      sizeof(storage::SegCatalogHeader) +
      uint64_t{ch.tracked_count} * sizeof(uint32_t) +
      h.num_segments *
          storage::SegCatalogRecordBytes(ch.tracked_count, ch.bitset_words);
  if (entry.size != expected) {
    out.status = corrupt(
        "seg_catalog section holds " + std::to_string(entry.size) +
        " bytes, expected " + std::to_string(expected) + " for " +
        std::to_string(h.num_segments) + " segments (bitset/tracked "
        "length mismatch?)");
    return out;
  }
  const auto* cursor = reinterpret_cast<const uint8_t*>(
      bytes.data() + entry.offset + sizeof(storage::SegCatalogHeader));
  const auto read = [&cursor](auto* v) {
    std::memcpy(v, cursor, sizeof(*v));
    cursor += sizeof(*v);
    return *v;
  };
  std::vector<ItemId> tracked_ids(ch.tracked_count);
  for (uint32_t i = 0; i < ch.tracked_count; ++i) {
    if (read(&tracked_ids[i]) >= h.alphabet_size) {
      out.status = corrupt("seg_catalog tracked item id out of range");
      return out;
    }
  }
  std::vector<ItemId> min_item(h.num_segments);
  std::vector<ItemId> max_item(h.num_segments);
  std::vector<uint64_t> bits(h.num_segments * ch.bitset_words);
  std::vector<uint32_t> supports(h.num_segments * ch.tracked_count);
  for (uint64_t seg = 0; seg < h.num_segments; ++seg) {
    read(&min_item[seg]);
    read(&max_item[seg]);
    const bool empty_segment =
        min_item[seg] == kInvalidItem && max_item[seg] == 0;
    if (!empty_segment && (min_item[seg] > max_item[seg] ||
                           max_item[seg] >= h.alphabet_size)) {
      out.status = corrupt("seg_catalog segment " + std::to_string(seg) +
                           " has out-of-range item bounds");
      return out;
    }
    for (uint32_t w = 0; w < ch.bitset_words; ++w) {
      read(&bits[seg * ch.bitset_words + w]);
    }
    const uint64_t seg_txns = segments[seg + 1] - segments[seg];
    for (uint32_t i = 0; i < ch.tracked_count; ++i) {
      if (read(&supports[seg * ch.tracked_count + i]) > seg_txns) {
        out.status = corrupt("seg_catalog segment " + std::to_string(seg) +
                             " records a support above its size");
        return out;
      }
    }
  }
  SegmentCatalog catalog = SegmentCatalog::FromParts(
      segments, ch.bitset_words, std::move(tracked_ids),
      std::move(min_item), std::move(max_item), std::move(bits),
      std::move(supports));
  if (validate) {
    const TransactionDb db = TransactionDb::FromBorrowed(
        out.offsets, out.items, h.alphabet_size, h.max_width);
    const SegmentCatalog rebuilt = SegmentCatalog::Build(
        db, segments, ch.tracked_count, ch.bitset_words);
    const auto same = [](auto a, auto b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    };
    const auto mismatch = [&](const std::string& what) {
      return corrupt("seg_catalog disagrees with the items column (" +
                     what + ")");
    };
    if (!same(rebuilt.tracked_ids(), catalog.tracked_ids())) {
      out.status = mismatch("tracked items");
      return out;
    }
    for (size_t seg = 0; seg < catalog.num_segments(); ++seg) {
      if (catalog.min_item(seg) != rebuilt.min_item(seg) ||
          catalog.max_item(seg) != rebuilt.max_item(seg)) {
        out.status = mismatch("segment item bounds");
        return out;
      }
      if (!same(catalog.segment_bits(seg), rebuilt.segment_bits(seg))) {
        out.status = mismatch("segment bitsets");
        return out;
      }
      if (!same(catalog.segment_tracked_supports(seg),
                rebuilt.segment_tracked_supports(seg))) {
        out.status = mismatch("tracked supports");
        return out;
      }
    }
  }
  out.catalog = std::move(catalog);
  return out;
}

}  // namespace testutil
}  // namespace flipper

#endif  // FLIPPER_TESTS_TEST_UTIL_H_
