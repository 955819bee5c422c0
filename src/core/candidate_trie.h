// CandidateTrie: the Apriori "hash-tree" role. Stores all candidate
// k-itemsets of one cell as a prefix trie over sorted item ids, so that
// a transaction can increment exactly the candidates it contains
// without enumerating all of its k-subsets blindly.
//
// The trie is a single arena with SoA columns per node (items[] /
// child_begin[] / child_end[] / leaf_index[]), walked iteratively with
// an explicit frame stack. The txn∩children merge-walk runs over the
// dense items[] stream with a packed lower-bound probe — selected at
// *runtime* from one binary: AVX2 when cpuid reports it, SSE2 on
// x86-64, a 64-bit mask + std::countr_zero word kernel otherwise — and
// switches to a galloping probe when the sibling list is long relative
// to the remaining transaction suffix.
//
// In front of the walk an optional per-trie prefilter (min/max
// candidate item + a 512-bit presence bitset, sharing
// SegmentCatalog::HashBit) drops transaction items that provably occur
// in no candidate and rejects transactions left with fewer than k
// items. The filter is one-sided — a hash collision only keeps an item
// that the walk then ignores — so counts are bit-identical with it on
// or off (MiningConfig::enable_txn_prefilter).

#ifndef FLIPPER_CORE_CANDIDATE_TRIE_H_
#define FLIPPER_CORE_CANDIDATE_TRIE_H_

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/itemset.h"
#include "data/segment_catalog.h"
#include "data/types.h"

namespace flipper {

/// Lower-bound probe kernels over a sorted ItemId stream: first index
/// in [lo, hi) whose item is >= target, hi when none. Exposed for the
/// probe-kernel micro-bench and the kernel-agreement unit tests; the
/// trie walk dispatches between them internally.
namespace trie_probe {

/// Signature shared by every lower-bound kernel.
using ProbeFn = uint32_t (*)(const ItemId* items, uint32_t lo,
                             uint32_t hi, ItemId target);

/// Baseline: one compare per element.
uint32_t LowerBoundScalar(const ItemId* items, uint32_t lo, uint32_t hi,
                          ItemId target);

/// Portable packed probe: 8-wide compare masks folded into one 64-bit
/// word, resolved with std::countr_zero. Always built; also the tail
/// kernel of the vectorized variants.
uint32_t LowerBoundPackedPortable(const ItemId* items, uint32_t lo,
                                  uint32_t hi, ItemId target);

/// Runtime-dispatched packed probe. One binary carries every kernel;
/// the first call resolves the best one the host CPU supports (AVX2
/// via cpuid, else SSE2 on x86-64, else the portable word kernel),
/// honouring the FLIPPER_FORCE_PROBE_KERNEL override — an unknown or
/// unsupported forced name aborts with an explicit message rather
/// than silently falling back. Hot loops should hoist
/// ResolvedPackedKernel() once instead of paying the dispatch load
/// per probe.
uint32_t LowerBoundPacked(const ItemId* items, uint32_t lo, uint32_t hi,
                          ItemId target);

/// The function pointer LowerBoundPacked dispatches through,
/// resolving it first if needed.
ProbeFn ResolvedPackedKernel();

/// Galloping (exponential + binary) probe for long streams.
uint32_t LowerBoundGallop(const ItemId* items, uint32_t lo, uint32_t hi,
                          ItemId target);

/// Name of the kernel LowerBoundPacked currently resolves to ("avx2",
/// "sse2", "portable" or "scalar") — reported by the bench JSON.
const char* PackedKernelName();

/// Kernel names this host can run, dispatch-preferred first.
std::vector<const char*> AvailableKernelNames();

/// The kernel registered under `name`, independent of the dispatch
/// state; nullptr when the name is unknown or the host CPU cannot run
/// it. For the kernel-agreement tests.
ProbeFn KernelByName(std::string_view name);

/// Pins LowerBoundPacked to the named kernel (tests/benches — the env
/// override is the production path). InvalidArgument on unknown
/// names, FailedPrecondition when the host CPU lacks the kernel.
Status ForcePackedKernel(std::string_view name);

/// Restores cpuid auto-dispatch; FLIPPER_FORCE_PROBE_KERNEL is
/// re-read at the next resolution.
void ResetPackedKernel();

}  // namespace trie_probe

/// Small exact-reject item filter: min/max id plus a fixed 512-bit
/// presence bitset hashed with SegmentCatalog::HashBit. MayContain is
/// one-sided: false proves the item was never added, true may be a
/// collision. Shared by the candidate trie's transaction prefilter and
/// the scan-driven cell's participating-item filter.
class ItemPrefilter {
 public:
  static constexpr uint32_t kBits = 512;

  void Add(ItemId item) {
    if (item < min_) min_ = item;
    if (item > max_) max_ = item;
    const uint32_t bit = SegmentCatalog::HashBit(item, kBits);
    bits_[bit / 64] |= uint64_t{1} << (bit % 64);
  }

  bool MayContain(ItemId item) const {
    if (item < min_ || item > max_) return false;
    const uint32_t bit = SegmentCatalog::HashBit(item, kBits);
    return (bits_[bit / 64] >> (bit % 64)) & 1;
  }

  void Clear() {
    min_ = kInvalidItem;
    max_ = 0;
    bits_.fill(0);
  }

 private:
  ItemId min_ = kInvalidItem;
  ItemId max_ = 0;
  std::array<uint64_t, kBits / 64> bits_{};
};

class CandidateTrie {
 public:
  struct Options {
    /// Reject/compact transactions through the candidate-item
    /// prefilter before the walk. Exact: results are identical.
    bool prefilter = true;
  };

  /// Reusable per-caller counting scratch. One instance per thread
  /// (shards each own one); Reserve() up front so the per-transaction
  /// loop never allocates — grow_events counts the reallocation the
  /// debug assertions require to stay at zero.
  struct CountScratch {
    /// Prefilter-compacted transaction buffer.
    std::vector<ItemId> filtered;
    /// Times `filtered` had to grow inside CountTransaction. With a
    /// correct Reserve this stays 0 — asserted by the batch scan.
    uint64_t grow_events = 0;
    /// Transactions of length >= k rejected by the prefilter before
    /// any walk (informational; reset by each batch scan).
    uint64_t txns_prefiltered = 0;

    void Reserve(size_t max_txn_width) {
      if (max_txn_width > filtered.capacity()) {
        filtered.reserve(max_txn_width);
      }
    }
  };

  /// An empty trie (no candidates); fill with Build().
  CandidateTrie() = default;

  /// Builds the trie over candidates (all of equal size k >= 1).
  /// The candidate order defines the counter indexing.
  explicit CandidateTrie(std::span<const Itemset> candidates) {
    Build(candidates);
  }
  CandidateTrie(std::span<const Itemset> candidates,
                const Options& options) {
    Build(candidates, options);
  }

  /// Rebuilds over a new candidate batch, reusing the arena and
  /// counter allocations of previous builds (the row-level trie-reuse
  /// seam: one trie object serves every cell of a row).
  void Build(std::span<const Itemset> candidates,
             const Options& options);
  inline void Build(std::span<const Itemset> candidates);

  int k() const { return k_; }
  size_t num_candidates() const { return counts_.size(); }
  const Options& options() const { return options_; }

  /// Total trie nodes across all layers.
  size_t num_nodes() const;

  /// Feeds one (sorted, deduped) transaction through the trie,
  /// incrementing every contained candidate.
  void CountTransaction(std::span<const ItemId> txn);

  /// External-counter variant: increments into `counts` (size
  /// num_candidates(), same input-order indexing) instead of the
  /// built-in counters. The trie itself is untouched, so concurrent
  /// callers with private buffers can share one trie.
  void CountTransaction(std::span<const ItemId> txn,
                        std::span<uint32_t> counts) const;

  /// Scratch-reusing variant: `scratch` provides the prefilter
  /// compaction buffer, so a warmed-up caller performs no
  /// per-transaction allocation (the hot-path entry point).
  void CountTransaction(std::span<const ItemId> txn,
                        std::span<uint32_t> counts,
                        CountScratch* scratch) const;

  /// Counter of candidate `i` (input order).
  uint32_t CountOf(size_t i) const { return counts_[i]; }

  std::span<const uint32_t> counts() const { return counts_; }

  /// Heap bytes of the SoA columns and counters plus the prefilter
  /// bitset when enabled. Exact for a freshly constructed trie: the
  /// builder sizes every column ahead of time, so capacity == size.
  int64_t MemoryBytes() const;

  /// Bytes the prefilter contributes to MemoryBytes() when enabled.
  static constexpr int64_t PrefilterMemoryBytes() {
    return static_cast<int64_t>(sizeof(ItemPrefilter));
  }

 private:
  void BuildArena(std::span<const Itemset> candidates,
                  std::span<const uint32_t> order,
                  std::span<const uint32_t> layer_sizes);

  void CountWalk(std::span<const ItemId> txn, uint32_t* counts) const;

  int k_ = 0;
  Options options_;

  // One arena in layer-major order (layer d holds the d-th items of
  // the candidates). Node ids are global; layer d occupies
  // [layer_begin_[d], layer_begin_[d + 1]). Internal nodes (depth < k-1,
  // global id < layer_begin_[k_-1]) carry child ranges of global ids in
  // the next layer; leaf-layer nodes carry
  // leaf_index_[id - layer_begin_[k_-1]] into counts_.
  std::vector<ItemId> items_;
  std::vector<uint32_t> child_begin_;
  std::vector<uint32_t> child_end_;
  std::vector<uint32_t> leaf_index_;
  std::vector<uint32_t> layer_begin_;
  ItemPrefilter prefilter_;

  std::vector<uint32_t> counts_;
};

inline void CandidateTrie::Build(std::span<const Itemset> candidates) {
  Build(candidates, Options{});
}

}  // namespace flipper

#endif  // FLIPPER_CORE_CANDIDATE_TRIE_H_
