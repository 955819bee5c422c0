// SegmentCatalog: per-segment item metadata for scan skipping. The
// transactions of a database are partitioned into contiguous segments
// (the .fdb shard segments, or synthesized fixed-size ranges for
// in-memory databases); for each segment the catalog records
//
//   - the min/max item id occurring in it,
//   - a small fixed-size bitset (a one-hash Bloom filter) with a bit
//     set for every item present, and
//   - exact support counts for a tracked set of globally
//     top-frequency items.
//
// The skip rule is one-sided and therefore exact: an unset bit, an id
// outside [min, max], or a tracked count of zero *proves* the item is
// absent from the segment, so a candidate itemset containing such an
// item has zero support there and the segment contributes nothing to
// its count. A set bit may be a hash collision, which only costs a
// missed skip, never a wrong support.
//
// The catalog is persisted as the kSegCatalog section of a v2
// FlipperStore file and built per abstraction level by LevelViews for
// the generalized databases (same transaction boundaries, level-h
// vocabulary).

#ifndef FLIPPER_DATA_SEGMENT_CATALOG_H_
#define FLIPPER_DATA_SEGMENT_CATALOG_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "data/types.h"

namespace flipper {

class TransactionDb;

class SegmentCatalog {
 public:
  /// Bitset words per segment (512 bits). The v2 file records its own
  /// word count, so this is a writer default, not a format constant.
  static constexpr uint32_t kDefaultBitsetWords = 8;
  /// Tracked top-frequency items per catalog.
  static constexpr uint32_t kDefaultTrackedItems = 16;
  /// Segment size used when boundaries are synthesized for databases
  /// that did not come from a segmented store.
  static constexpr uint64_t kDefaultSegmentTxns = 4096;

  SegmentCatalog() = default;

  /// Builds a catalog of `db` over `boundaries` (num_segments + 1
  /// monotone transaction indexes from 0 to db.size()). Tracked items
  /// are the `tracked_items` most frequent ids (frequency descending,
  /// id ascending tiebreak). Segments are processed independently, so
  /// a pool shards the work without changing the result.
  static SegmentCatalog Build(const TransactionDb& db,
                              std::vector<uint64_t> boundaries,
                              uint32_t tracked_items = kDefaultTrackedItems,
                              uint32_t bitset_words = kDefaultBitsetWords,
                              ThreadPool* pool = nullptr);
  /// As above, with the item frequencies already known: `item_freq`
  /// must equal db.ItemFrequencies() (LevelViews passes the supports
  /// its generalize pass counted, so the catalog skips the recount).
  static SegmentCatalog Build(const TransactionDb& db,
                              std::vector<uint64_t> boundaries,
                              std::span<const uint32_t> item_freq,
                              uint32_t tracked_items = kDefaultTrackedItems,
                              uint32_t bitset_words = kDefaultBitsetWords,
                              ThreadPool* pool = nullptr);

  /// Evenly spaced boundaries (every `segment_txns` transactions) for
  /// a database of `num_txns` transactions; always spans [0, num_txns].
  static std::vector<uint64_t> UniformBoundaries(uint64_t num_txns,
                                                 uint64_t segment_txns);

  /// Assembles a catalog from decoded storage sections. The caller
  /// (StoreReader) validates bounds first; this only wires the parts.
  static SegmentCatalog FromParts(std::vector<uint64_t> boundaries,
                                  uint32_t bitset_words,
                                  std::vector<ItemId> tracked_ids,
                                  std::vector<ItemId> min_item,
                                  std::vector<ItemId> max_item,
                                  std::vector<uint64_t> bits,
                                  std::vector<uint32_t> tracked_supports);

  size_t num_segments() const { return min_item_.size(); }
  bool empty() const { return num_segments() == 0; }

  /// num_segments() + 1 transaction indexes, 0 .. num_txns.
  std::span<const uint64_t> boundaries() const { return boundaries_; }

  uint32_t bitset_words() const { return bitset_words_; }
  uint32_t bitset_bits() const { return bitset_words_ * 64; }
  std::span<const ItemId> tracked_ids() const { return tracked_ids_; }

  ItemId min_item(size_t seg) const { return min_item_[seg]; }
  ItemId max_item(size_t seg) const { return max_item_[seg]; }
  std::span<const uint64_t> segment_bits(size_t seg) const {
    return {bits_.data() + seg * bitset_words_, bitset_words_};
  }
  std::span<const uint32_t> segment_tracked_supports(size_t seg) const {
    return {tracked_supports_.data() + seg * tracked_ids_.size(),
            tracked_ids_.size()};
  }

  /// Bit index of `item` in a `num_bits`-wide segment bitset. This is
  /// the single definition of the catalog hash: the store writer, the
  /// reader's catalog check and every MayContain probe go through
  /// it, so they can never diverge (a divergent hash would silently
  /// mis-skip live segments).
  static uint32_t HashBit(ItemId item, uint32_t num_bits) {
    // Fibonacci hash; any fixed mixing works as long as every party
    // agrees.
    return static_cast<uint32_t>((item * 2654435761u) % num_bits);
  }

  /// Bit index of `item` in this catalog's segment bitsets.
  uint32_t BitIndex(ItemId item) const {
    return HashBit(item, bitset_bits());
  }

  /// The `k` most frequent item ids of `freq` (frequency descending,
  /// id ascending tiebreak) — the tracked-set selection shared by
  /// Build and the store writer.
  static std::vector<ItemId> TopKByFrequency(
      std::span<const uint32_t> freq, uint32_t k);

  /// False only when `item` provably does not occur in segment `seg`
  /// (range or bitset exclusion, or a tracked count of zero).
  bool MayContain(size_t seg, ItemId item) const {
    if (item < min_item_[seg] || item > max_item_[seg]) return false;
    const uint32_t bit = BitIndex(item);
    if ((bits_[seg * bitset_words_ + bit / 64] &
         (uint64_t{1} << (bit % 64))) == 0) {
      return false;
    }
    const auto tracked = TrackedSupport(seg, item);
    return !tracked.has_value() || *tracked > 0;
  }

  /// Exact support of `item` within segment `seg` when tracked.
  std::optional<uint32_t> TrackedSupport(size_t seg, ItemId item) const {
    for (size_t i = 0; i < tracked_ids_.size(); ++i) {
      if (tracked_ids_[i] == item) {
        return tracked_supports_[seg * tracked_ids_.size() + i];
      }
    }
    return std::nullopt;
  }

  /// Mean fraction of set bits across segment bitsets (inspect stat).
  double MeanBitsetFill() const;

  int64_t MemoryBytes() const;

 private:
  uint32_t bitset_words_ = kDefaultBitsetWords;
  std::vector<uint64_t> boundaries_ = {0};
  std::vector<ItemId> tracked_ids_;
  std::vector<ItemId> min_item_;          // kInvalidItem for empty segs
  std::vector<ItemId> max_item_;          // 0 for empty segs
  std::vector<uint64_t> bits_;            // num_segments x bitset_words
  std::vector<uint32_t> tracked_supports_;  // num_segments x tracked
};

/// Invokes fn(lo, hi) for the maximal sub-ranges of [lo, hi) that lie
/// in segments whose `scan_segment[seg]` flag is true. `boundaries`
/// are the catalog's transaction boundaries; empty flags mean "no
/// catalog consulted" and scan the whole range. The scan paths use
/// this to walk only non-skipped segments while preserving
/// transaction order (determinism is unaffected: skipped segments
/// contribute nothing by construction).
template <typename Fn>
void ForEachScannableRange(std::span<const uint64_t> boundaries,
                           std::span<const char> scan_segment, size_t lo,
                           size_t hi, const Fn& fn) {
  if (lo >= hi) return;
  if (scan_segment.empty()) {
    fn(lo, hi);
    return;
  }
  // First segment whose end is past lo.
  size_t seg = 0;
  {
    const auto it = std::upper_bound(boundaries.begin(), boundaries.end(),
                                     static_cast<uint64_t>(lo));
    seg = static_cast<size_t>(it - boundaries.begin());
    seg = seg == 0 ? 0 : seg - 1;
  }
  size_t t = lo;
  while (t < hi && seg < scan_segment.size()) {
    const size_t seg_end =
        std::min<size_t>(hi, static_cast<size_t>(boundaries[seg + 1]));
    if (scan_segment[seg]) fn(t, seg_end);
    t = seg_end;
    ++seg;
  }
}

}  // namespace flipper

#endif  // FLIPPER_DATA_SEGMENT_CATALOG_H_
