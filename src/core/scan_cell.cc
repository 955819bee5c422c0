#include "core/scan_cell.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>

#include "common/cancellation.h"
#include "common/trace.h"
#include "core/candidate_trie.h"
#include "core/cell_planner.h"
#include "core/support_counting.h"

namespace flipper {
namespace {

/// Transactions per scan shard below which the per-shard counter
/// tables and the merge pass cost more than the parallelism buys.
constexpr size_t kMinTxnsPerScanShard = 512;

}  // namespace

double ScanEnumerationCost(const LevelViews& views, int h, int k,
                           double live_fraction) {
  const std::vector<uint32_t>& hist = views.Level(h).width_hist;
  const double rate = std::clamp(live_fraction, 0.0, 1.0);
  double total = 0.0;
  for (size_t w = static_cast<size_t>(k); w < hist.size(); ++w) {
    if (hist[w] == 0) continue;
    // C(ew, k) with the expected filtered width ew = w * rate, capped.
    const double ew = static_cast<double>(w) * rate;
    if (ew < static_cast<double>(k)) continue;
    double combos = 1.0;
    for (int i = 0; i < k; ++i) {
      combos *= (ew - static_cast<double>(i)) /
                static_cast<double>(k - i);
      if (combos > 1e15) break;
    }
    total += combos * hist[w];
    if (total > 1e15) return total;
  }
  return total;
}

Status FillCellByScan(const LevelViews& views, const Taxonomy& taxonomy,
                      const MiningConfig& config, int h, int k,
                      const Cell& parent_cell, const Cell* prev_in_row,
                      const std::unordered_set<ItemId>& banned,
                      std::span<const ItemId> freq_items,
                      std::vector<Itemset>* candidates,
                      std::vector<uint32_t>* supports, CellStats* cs,
                      MiningStats* stats, ScanCellScratch* scratch,
                      ThreadPool* pool) {
  ScanCellScratch local;
  ScanCellScratch* s = scratch != nullptr ? scratch : &local;

  // Participating items: frequent at level h and not SIBP-banned.
  const LevelData& level = views.Level(h);
  s->ok.assign(level.item_support.size(), 0);
  s->live_items.clear();
  for (ItemId item : freq_items) {
    if (banned.find(item) == banned.end()) {
      s->ok[item] = 1;
      s->live_items.push_back(item);
    }
  }
  const std::vector<char>& ok = s->ok;
  const std::vector<ItemId>& live_items = s->live_items;

  // Cheap pre-screen in front of the ok[] confirm pass: min/max id
  // plus a 512-bit presence bitset over the participating items. The
  // bitset is one-sided, so it can only reject items ok[] would
  // reject too — cell contents are identical with it on or off.
  ItemPrefilter prefilter;
  const bool use_prefilter = config.enable_txn_prefilter;
  if (use_prefilter) {
    for (ItemId item : live_items) prefilter.Add(item);
  }

  // Segment skipping: a transaction can only contribute a k-subset if
  // its segment holds at least k distinct participating items, so a
  // segment whose catalog proves fewer possible live items is skipped
  // outright. The rule is exact — MayContain() is one-sided — so cell
  // contents are identical with skipping on or off.
  s->scan_flags.clear();
  std::span<const uint64_t> seg_boundaries;
  const SegmentCatalog* catalog =
      config.enable_segment_skipping
          ? UsableCatalog(level.catalog.get(), level.db)
          : nullptr;
  if (catalog != nullptr) {
    seg_boundaries = catalog->boundaries();
    s->scan_flags.assign(catalog->num_segments(), 1);
    for (size_t seg = 0; seg < catalog->num_segments(); ++seg) {
      size_t possible = 0;
      for (ItemId item : live_items) {
        if (catalog->MayContain(seg, item) &&
            ++possible >= static_cast<size_t>(k)) {
          break;
        }
      }
      if (possible < static_cast<size_t>(k)) {
        s->scan_flags[seg] = 0;
        ++stats->segments_skipped;
      }
    }
  }
  const std::vector<char>& scan_flags = s->scan_flags;

  // Phase 1: count every k-subset of participating items that occurs,
  // sharded over transaction ranges with one private counter table per
  // shard. A shard whose own table exceeds the candidate cap stops
  // early and flags exhaustion: its local count already lower-bounds
  // the merged count, so the run is doomed either way. The shard tables
  // and item buffers come from the scratch, so a warm cell allocates
  // nothing per transaction (Reset() keeps table storage, clear() keeps
  // vector capacity).
  const int num_shards =
      views.NumScanShards(h, kMinTxnsPerScanShard, pool);
  if (s->shard_tables.size() < static_cast<size_t>(num_shards)) {
    s->shard_tables.resize(static_cast<size_t>(num_shards));
  }
  for (int i = 0; i < num_shards; ++i) {
    s->shard_tables[static_cast<size_t>(i)].Reset(k);
  }
  if (s->shard_buf.size() < static_cast<size_t>(num_shards)) {
    s->shard_buf.resize(static_cast<size_t>(num_shards));
  }
  for (int i = 0; i < num_shards; ++i) {
    auto& buf = s->shard_buf[static_cast<size_t>(i)];
    buf.clear();
    buf.reserve(level.db.max_width());
  }
  const CancelToken* cancel = config.cancel;
  std::atomic<bool> exhausted{false};
  views.ScanShards(h, num_shards, [&](int shard, size_t lo, size_t hi) {
    FLIPPER_TRACE_SPAN_HK("scan_shard", "task", h, k);
    std::vector<ItemId>& buf = s->shard_buf[static_cast<size_t>(shard)];
    ScanCounterTable& counts = s->shard_tables[static_cast<size_t>(shard)];
    Itemset combo_scratch;
    // Cancellation poll every 512 transactions, same early-out shape
    // as the `exhausted` flag; partial shard counts are fine because
    // the fired token fails the cell below before any merge is used.
    size_t until_cancel_check = 512;
    const auto scan_range = [&](size_t range_lo, size_t range_hi) {
      for (size_t t = range_lo; t < range_hi; ++t) {
        if (exhausted.load(std::memory_order_relaxed)) return;
        if (cancel != nullptr && --until_cancel_check == 0) {
          until_cancel_check = 512;
          if (cancel->Fired()) {
            exhausted.store(true, std::memory_order_relaxed);
            return;
          }
        }
        buf.clear();
        for (ItemId item : level.db.Get(static_cast<TxnId>(t))) {
          if (use_prefilter && !prefilter.MayContain(item)) continue;
          if (item < ok.size() && ok[item]) buf.push_back(item);
        }
        if (buf.size() < static_cast<size_t>(k)) continue;
        ForEachCombination(
            buf, k, &combo_scratch,
            [&](const Itemset& combo) { counts.Increment(combo); });
        if (counts.size() > config.max_candidates_per_cell) {
          exhausted.store(true, std::memory_order_relaxed);
          return;
        }
      }
    };
    ForEachScannableRange(seg_boundaries, scan_flags, lo, hi,
                          scan_range);
  }, pool);
  // The scan I/O happened whether or not it completed — account it
  // before any bail-out.
  ++stats->db_scans;
  ++stats->scan_cell_scans;

  // A fired token also trips `exhausted` (to stop the other shards),
  // so it must be classified first — cancellation, not overflow.
  if (cancel != nullptr && cancel->Fired()) {
    Status st = cancel->ToStatus();
    if (st.ok()) st = Status::Cancelled("cancelled: query abandoned");
    return st;
  }
  const Status overflow = Status::ResourceExhausted(
      "scan-driven cell Q(" + std::to_string(h) + "," +
      std::to_string(k) + ") exceeded the candidate limit");
  if (exhausted.load(std::memory_order_relaxed)) return overflow;

  // Deterministic shard-order merge of the private counters. The
  // merged counter is re-checked against the cap per shard so it never
  // grows much past it; the per-shard counters themselves are each
  // bounded by the cap above (a tighter cap / num_shards bound would
  // flag cells the serial path accepts, since shards overlap). Shard
  // 0's counter doubles as the merge target — iterated in place, not
  // moved, so its storage survives for reuse. (Counts are additive, so
  // the merged totals are shard-order independent; emission is sorted
  // below either way.)
  FLIPPER_TRACE_SPAN_HK("scan_merge", "detail", h, k);
  ScanCounterTable& merged = s->shard_tables[0];
  for (int i = 1; i < num_shards; ++i) {
    const ScanCounterTable& table = s->shard_tables[static_cast<size_t>(i)];
    for (const ScanCounterTable::Entry& entry : table.entries()) {
      merged.Increment(table.KeyOf(entry).data(), entry.count);
    }
    if (merged.size() > config.max_candidates_per_cell) {
      return overflow;
    }
  }
  if (merged.size() > config.max_candidates_per_cell) {
    return overflow;
  }
  cs->generated = merged.size();
  std::vector<std::pair<Itemset, uint32_t>> entries;
  entries.reserve(merged.size());
  for (const ScanCounterTable::Entry& entry : merged.entries()) {
    entries.emplace_back(merged.ItemsetOf(entry), entry.count);
  }

  // Phase 2: keep combinations growable from an eligible parent that
  // pass the known-infrequent subset filter. (Combinations whose items
  // share a level-1 root generalize to fewer than k items and find no
  // parent record, so they drop out here.) Sorted emission keeps the
  // cell contents reproducible across thread counts and platforms.
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  candidates->clear();
  supports->clear();
  for (const auto& [combo, sup] : entries) {
    const Itemset parent_itemset = combo.Map([&](ItemId item) {
      return taxonomy.AncestorAtLevel(item, h - 1);
    });
    const ItemsetRecord* parent_record = parent_cell.Find(parent_itemset);
    if (parent_record == nullptr ||
        !ParentEligible(config, *parent_record)) {
      continue;
    }
    if (prev_in_row != nullptr) {
      bool viable = true;
      for (int drop = 0; drop < combo.size() && viable; ++drop) {
        const ItemsetRecord* rec =
            prev_in_row->Find(combo.WithoutIndex(drop));
        if (rec != nullptr && !rec->frequent) viable = false;
      }
      if (!viable) continue;
    }
    candidates->push_back(combo);
    supports->push_back(sup);
  }
  return Status::OK();
}

}  // namespace flipper
