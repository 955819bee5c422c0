#include "core/level_views.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>

#include "common/trace.h"

namespace flipper {

namespace {

/// What the fused pass needs to know about an id: transactions may hold
/// leaves only, and a generalized item counts toward the shared support
/// vector only when it is an internal node (see ShardOutput::support).
enum NodeKind : uint8_t { kNotNode = 0, kInternal = 1, kLeaf = 2 };

/// Leaf transactions per shard of the fused pass.
constexpr size_t kMinTxnsPerShard = 1024;

/// One shard's share of the fused generalize pass. Generalized levels
/// are indexed g = h - 1 for h in 1..H-1; the leaf level H keeps no
/// items of its own (its view is the leaf database).
struct ShardOutput {
  /// Generalized items of each level g, transactions back to back.
  std::vector<std::vector<ItemId>> items;
  /// widths[g][i]: generalized width of the shard's i-th transaction.
  std::vector<std::vector<uint32_t>> widths;
  /// Transactions of this shard containing node x at every level where
  /// x is part of the vocabulary. One vector serves all levels: an
  /// internal node occurs only at its own level, and a leaf stands for
  /// itself alone at every level from its own down to H, so its support
  /// is the same at each of them (no other item generalizes to it).
  std::vector<uint32_t> support;
  /// width_hist[h - 1][w]: transactions of generalized width w at
  /// level h, sized to the widest seen (the leaf level included).
  std::vector<std::vector<uint32_t>> width_hist;
  /// The shard's first transaction holding a non-leaf item, if any (the
  /// shard stops there).
  std::optional<TxnId> bad_txn;
  ItemId bad_item = 0;
};

void CountWidth(std::vector<uint32_t>* hist, size_t width) {
  if (width >= hist->size()) hist->resize(width + 1, 0);
  ++(*hist)[width];
}

}  // namespace

Result<LevelViews> LevelViews::Build(const TransactionDb& leaf_db,
                                     const Taxonomy& taxonomy,
                                     ThreadPool* pool,
                                     const BuildOptions& options) {
  const int height = taxonomy.height();
  const size_t generalized = height > 0 ? static_cast<size_t>(height - 1)
                                        : 0;
  const size_t id_space = taxonomy.id_space();
  const uint32_t num_txns = leaf_db.size();

  // Per-id tables: the node kind, and the level-1..H-1 generalizations
  // of every leaf laid out item-major, so one row holds all of a
  // leaf's ancestors.
  std::vector<uint8_t> kind(id_space, kNotNode);
  std::vector<ItemId> ancestors(id_space * generalized, kInvalidItem);
  for (ItemId id = 0; id < id_space; ++id) {
    if (!taxonomy.IsNode(id)) continue;
    if (!taxonomy.IsLeaf(id)) {
      kind[id] = kInternal;
      continue;
    }
    kind[id] = kLeaf;
    for (size_t g = 0; g < generalized; ++g) {
      ancestors[id * generalized + g] =
          taxonomy.AncestorAtLevel(id, static_cast<int>(g) + 1);
    }
  }

  const int num_shards = ShardCount(num_txns, pool, kMinTxnsPerShard);
  std::vector<ShardOutput> shards(static_cast<size_t>(num_shards));
  for (ShardOutput& out : shards) {
    out.items.resize(generalized);
    out.widths.resize(generalized);
    out.support.assign(id_space, 0);
    out.width_hist.resize(static_cast<size_t>(height));
  }
  {
    FLIPPER_TRACE_SPAN("views_generalize", "detail");
    // One pass over the leaf transactions validates every item and
    // produces every generalized level with its supports and widths.
    ParallelFor(pool, 0, num_txns, num_shards, [&](int s, size_t lo,
                                                   size_t hi) {
      ShardOutput& out = shards[static_cast<size_t>(s)];
      // A generalized transaction is never wider than its leaf one, so
      // the range's leaf item count bounds every level's buffer.
      const std::span<const ItemId> last =
          leaf_db.Get(static_cast<TxnId>(hi - 1));
      const auto range_items = static_cast<size_t>(
          last.data() + last.size() -
          leaf_db.Get(static_cast<TxnId>(lo)).data());
      for (size_t g = 0; g < generalized; ++g) {
        out.items[g].reserve(range_items);
        out.widths[g].reserve(hi - lo);
      }
      for (size_t t = lo; t < hi; ++t) {
        const std::span<const ItemId> txn =
            leaf_db.Get(static_cast<TxnId>(t));
        for (ItemId item : txn) {
          if (item >= id_space || kind[item] != kLeaf) {
            out.bad_txn = static_cast<TxnId>(t);
            out.bad_item = item;
            return;
          }
          ++out.support[item];
        }
        if (height > 0) CountWidth(&out.width_hist.back(), txn.size());
        for (size_t g = 0; g < generalized; ++g) {
          std::vector<ItemId>& items = out.items[g];
          const size_t start = items.size();
          for (ItemId item : txn) {
            items.push_back(ancestors[item * generalized + g]);
          }
          const auto begin = items.begin() + static_cast<ptrdiff_t>(start);
          std::sort(begin, items.end());
          items.erase(std::unique(begin, items.end()), items.end());
          for (size_t i = start; i < items.size(); ++i) {
            if (kind[items[i]] == kInternal) ++out.support[items[i]];
          }
          const size_t width = items.size() - start;
          out.widths[g].push_back(static_cast<uint32_t>(width));
          CountWidth(&out.width_hist[g], width);
        }
      }
    });
  }
  // Shards cover ascending transaction ranges and each stops at its
  // first bad transaction, so the first failing shard names the lowest
  // one — the same transaction (and message) for every thread count.
  for (const ShardOutput& out : shards) {
    if (!out.bad_txn.has_value()) continue;
    const ItemId item = out.bad_item;
    if (!taxonomy.IsNode(item)) {
      return Status::InvalidArgument(
          "transaction " + std::to_string(*out.bad_txn) +
          " contains item " + std::to_string(item) +
          " that is not a taxonomy node");
    }
    return Status::InvalidArgument(
        "transaction " + std::to_string(*out.bad_txn) + " contains item " +
        std::to_string(item) +
        " that is an internal taxonomy node; transactions must "
        "contain leaves only");
  }

  LevelViews views;
  views.num_txns_ = num_txns;
  views.levels_.resize(static_cast<size_t>(height));
  {
    FLIPPER_TRACE_SPAN("views_stitch", "detail");
    // Reduce supports and width histograms in shard order.
    std::vector<uint32_t> support(id_space, 0);
    for (const ShardOutput& out : shards) {
      for (size_t id = 0; id < id_space; ++id) {
        support[id] += out.support[id];
      }
      for (size_t g = 0; g < out.width_hist.size(); ++g) {
        std::vector<uint32_t>& hist = views.levels_[g].width_hist;
        hist.resize(std::max(hist.size(), out.width_hist[g].size()), 0);
        for (size_t w = 0; w < out.width_hist[g].size(); ++w) {
          hist[w] += out.width_hist[g][w];
        }
      }
    }

    // Each generalized level's CSR is its shards' buffers back to back:
    // allocate the levels' arrays, then copy every (level, shard) piece
    // to its place in parallel. The arrays outlive the build, so they
    // are allocated on the calling thread: allocating them on pool
    // threads stitches faster, but repeated builds in one process (a
    // daemon reloading stores) then grow peak RSS by up to ~35%.
    std::vector<std::vector<uint64_t>> base(generalized);
    std::vector<std::vector<uint64_t>> offsets(generalized);
    std::vector<std::vector<ItemId>> items(generalized);
    for (size_t g = 0; g < generalized; ++g) {
      base[g].assign(shards.size() + 1, 0);
      for (size_t s = 0; s < shards.size(); ++s) {
        base[g][s + 1] = base[g][s] + shards[s].items[g].size();
      }
      offsets[g].resize(size_t{num_txns} + 1, 0);
      items[g].resize(base[g].back());
    }
    const size_t pieces = generalized * shards.size();
    ParallelFor(pool, 0, pieces, static_cast<int>(pieces),
                [&](int, size_t lo, size_t hi) {
                  for (size_t piece = lo; piece < hi; ++piece) {
                    const size_t g = piece / shards.size();
                    const size_t s = piece % shards.size();
                    const ShardOutput& out = shards[s];
                    std::copy(out.items[g].begin(), out.items[g].end(),
                              items[g].begin() +
                                  static_cast<ptrdiff_t>(base[g][s]));
                    const size_t first =
                        ShardRange(0, num_txns, num_shards,
                                   static_cast<int>(s))
                            .first;
                    uint64_t end = base[g][s];
                    for (size_t i = 0; i < out.widths[g].size(); ++i) {
                      end += out.widths[g][i];
                      offsets[g][first + i + 1] = end;
                    }
                  }
                });
    shards.clear();

    for (int h = 1; h <= height; ++h) {
      LevelData& data = views.levels_[static_cast<size_t>(h - 1)];
      data.level = h;
      if (data.width_hist.empty()) data.width_hist.assign(1, 0);
      data.item_support.assign(
          std::max<size_t>(id_space,
                           h == height ? leaf_db.alphabet_size() : 0),
          0);
      // Level h's vocabulary is NodesAtLevel(h), so its alphabet ends
      // at the largest such node that occurs.
      ItemId alphabet = 0;
      for (ItemId node : taxonomy.NodesAtLevel(h)) {
        data.item_support[node] = support[node];
        if (support[node] > 0) alphabet = std::max(alphabet, node + 1);
      }
      if (h == height) {
        // The leaf level is the leaf database itself: LevelMap(H) is
        // the identity on leaves. A borrowed db is shared, not copied.
        data.db = leaf_db;
      } else {
        const auto g = static_cast<size_t>(h - 1);
        data.db = TransactionDb(
            std::move(offsets[g]), std::move(items[g]), alphabet,
            static_cast<uint32_t>(data.width_hist.size() - 1));
      }
    }
  }

  if (!options.build_catalogs || leaf_db.empty()) return views;
  FLIPPER_TRACE_SPAN("views_catalogs", "detail");
  // Catalog boundaries: the leaf database's own segmentation (the
  // store's shard layout) when it carries one, uniform ranges
  // otherwise. Generalization preserves transaction indexes, so the
  // same boundaries describe every level.
  const std::shared_ptr<const SegmentCatalog>& leaf_catalog =
      leaf_db.segment_catalog();
  std::vector<uint64_t> boundaries;
  if (leaf_catalog != nullptr) {
    boundaries.assign(leaf_catalog->boundaries().begin(),
                      leaf_catalog->boundaries().end());
  } else {
    boundaries =
        SegmentCatalog::UniformBoundaries(num_txns, options.segment_txns);
  }
  for (LevelData& data : views.levels_) {
    if (data.level == height && leaf_catalog != nullptr) {
      // A store-provided catalog already describes the leaf level.
      data.catalog = leaf_catalog;
      continue;
    }
    data.catalog = std::make_shared<SegmentCatalog>(SegmentCatalog::Build(
        data.db, boundaries,
        std::span<const uint32_t>(data.item_support)
            .first(data.db.alphabet_size()),
        SegmentCatalog::kDefaultTrackedItems,
        SegmentCatalog::kDefaultBitsetWords, pool));
  }
  return views;
}

const VerticalIndex& LevelViews::EnsureVertical(int h,
                                                ThreadPool* pool) const {
  const LevelData& data = levels_[static_cast<size_t>(h - 1)];
  // Serialize the lazy build; losers of the race reuse the winner's
  // index (whichever pool built it — the index content is
  // pool-independent).
  std::lock_guard<std::mutex> lock(*vertical_mu_);
  if (data.vertical == nullptr) {
    data.vertical = std::make_unique<VerticalIndex>(data.db, pool);
  }
  return *data.vertical;
}

int LevelViews::NumScanShards(int h, size_t min_txns_per_shard,
                              const ThreadPool* pool) const {
  return ShardCount(Level(h).db.size(), pool, min_txns_per_shard);
}

void LevelViews::ScanShards(
    int h, int num_shards,
    const std::function<void(int shard, size_t lo, size_t hi)>& fn,
    ThreadPool* pool) const {
  ParallelFor(pool, 0, Level(h).db.size(), num_shards, fn);
}

uint32_t LevelViews::MaxUniversalWidth() const {
  uint32_t bound = std::numeric_limits<uint32_t>::max();
  for (const LevelData& data : levels_) {
    bound = std::min(bound, data.db.max_width());
  }
  return levels_.empty() ? 0 : bound;
}

}  // namespace flipper
