// StoreWriter: streams a mining input into a .fdb FlipperStore file.
//
// Transactions are appended one at a time and their items flow
// straight to disk (delta+varint), so a generator can emit datasets
// larger than RAM without ever building a full TransactionDb in
// memory; only the CSR offsets (8 bytes per transaction), segment
// boundaries and per-segment catalog records are buffered until
// Finish(). The dictionary and taxonomy are
// written at Finish() so callers may keep interning names while
// appending.
//
// Durability. All disk traffic goes through storage/file_io.h.
// Create() writes to `path + ".tmp"` and only renames over `path`
// after a successful fsync, so a crashed fresh write never leaves a
// half-written store at the final path; failed writers remove their
// temp file (on error or on destruction). OpenAppend() extends an
// existing store in place with the commit protocol described in
// format.h: new data strictly after the committed bytes, a trailing
// section-table + header as the commit record, the front header
// rewritten last. A crash mid-append leaves the base store intact
// (torn tails are removed by `flipper_cli repair`); a failed append
// session truncates back to the base store before returning.
//
// The segment catalog tracks exact per-segment supports for the
// globally most frequent items; because "most frequent" is only known
// once every transaction has been appended, Finish() re-reads the
// just-written items column once (chunked, O(1) memory) to fill those
// counts — streaming memory stays bounded by the offsets buffer. An
// append session re-reads the base store's item blocks too, because
// appended transactions can change the tracked set for every segment.

#ifndef FLIPPER_STORAGE_STORE_WRITER_H_
#define FLIPPER_STORAGE_STORE_WRITER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/item_dictionary.h"
#include "data/segment_catalog.h"
#include "data/transaction_db.h"
#include "storage/file_io.h"
#include "storage/format.h"
#include "taxonomy/taxonomy.h"

namespace flipper {
namespace storage {

class StoreWriter {
 public:
  struct Options {
    /// Transactions per shard segment. Segments partition the file for
    /// sharded scans (LevelViews::ScanShards-style static splits) and
    /// are the granularity of scan skipping.
    uint32_t segment_txns = 1u << 16;
    /// Top-frequency items whose exact per-segment supports the
    /// catalog records.
    uint32_t catalog_tracked_items = SegmentCatalog::kDefaultTrackedItems;
    /// 64-bit bitset words per segment in the catalog.
    uint32_t catalog_bitset_words = SegmentCatalog::kDefaultBitsetWords;
  };

  struct AppendOptions {
    /// Transactions per new shard segment; 0 infers the base store's
    /// segment size (the widest existing segment). Every append
    /// session starts a new segment — existing segments are immutable.
    uint32_t segment_txns = 0;
    /// Tracked items for the rewritten catalog (the tracked set is
    /// recomputed over the whole store at commit).
    uint32_t catalog_tracked_items = SegmentCatalog::kDefaultTrackedItems;
  };

  /// Starts a fresh store: writes to `path + ".tmp"` and atomically
  /// renames onto `path` when Finish() commits. `fs` null = the real
  /// filesystem.
  static Result<StoreWriter> Create(const std::string& path,
                                    const Options& options,
                                    FileSystem* fs = nullptr);
  static Result<StoreWriter> Create(const std::string& path) {
    return Create(path, Options());
  }

  /// Starts an append session on an existing, fully committed store (a
  /// torn file must be repaired first — this validates like
  /// StoreReader::Open).
  /// Appended transactions go into new segments; Finish() commits them
  /// with the crash-safe trailer protocol, and the dictionary/taxonomy
  /// passed to Finish() may only *extend* the ones already on disk.
  static Result<StoreWriter> OpenAppend(const std::string& path,
                                        const AppendOptions& options,
                                        FileSystem* fs = nullptr);
  static Result<StoreWriter> OpenAppend(const std::string& path) {
    return OpenAppend(path, AppendOptions());
  }

  /// Abandons an unfinished session: removes the temp file (fresh) or
  /// truncates back to the base store (append). No-op after Finish().
  ~StoreWriter();

  StoreWriter(StoreWriter&&) = default;
  StoreWriter& operator=(StoreWriter&&) = default;
  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  /// Appends one transaction; items are copied, sorted and deduped
  /// (TransactionDb::Add semantics). Invalid after Finish(); after an
  /// error the writer has cleaned up and refuses further use.
  Status Append(std::span<const ItemId> items);

  /// Commits: writes the remaining sections plus the final checksummed
  /// header, fsyncs, and (fresh mode) renames the temp file into
  /// place. `dict` must name every appended item and every taxonomy
  /// node. Call exactly once.
  Status Finish(const ItemDictionary& dict, const Taxonomy& taxonomy);

  uint64_t num_transactions() const { return offsets_.size() - 1; }
  uint64_t num_items() const { return offsets_.back(); }
  /// Transactions added by this session (== num_transactions() for a
  /// fresh writer).
  uint64_t appended_transactions() const {
    return num_transactions() - base_txns_;
  }

 private:
  /// A contiguous byte range of the items column on disk (one block
  /// per session; the base store contributes one extent per earlier
  /// session).
  struct Extent {
    uint64_t offset = 0;
    uint64_t size = 0;
  };

  StoreWriter() = default;

  Status AppendImpl(std::span<const ItemId> items);
  Status FinishImpl(const ItemDictionary& dict, const Taxonomy& taxonomy);
  /// Best-effort cleanup of an unfinished session (see ~StoreWriter).
  void Abandon();

  /// Appends raw bytes to the file, folding them into `checksum`.
  Status WriteBytes(const void* data, size_t size, uint64_t* checksum);
  /// Pads the file to the section alignment.
  Status Pad();
  /// Writes one fully buffered section, appending its table entry to
  /// `table`.
  Status WriteSection(SectionId id, const void* data, size_t size,
                      std::vector<SectionEntry>* table);
  /// Closes the current catalog segment record.
  void FlushCatalogSegment();
  /// Re-reads the items column (`extents`, in transaction order) and
  /// accumulates per-segment supports for `tracked_ids` into
  /// `supports` (segments x tracked).
  Status CountTrackedSupports(std::span<const Extent> extents,
                              std::span<const ItemId> tracked_ids,
                              std::vector<uint32_t>* supports) const;

  Options options_;
  FileSystem* fs_ = nullptr;
  std::string final_path_;  // the store path
  std::string write_path_;  // temp path (fresh) or final_path_ (append)
  std::unique_ptr<WritableFile> file_;
  uint64_t file_pos_ = 0;
  std::vector<uint64_t> offsets_ = {0};
  std::vector<uint64_t> segments_ = {0};
  std::vector<ItemId> scratch_;
  std::vector<uint8_t> encode_scratch_;
  uint64_t items_checksum_ = kFnvOffsetBasis;
  uint64_t items_start_ = 0;
  ItemId alphabet_size_ = 0;
  uint32_t max_width_ = 0;
  uint32_t txns_in_open_segment_ = 0;
  bool finished_ = false;

  // --- Append-session state (defaults describe a fresh writer). ---
  bool append_mode_ = false;
  /// The commit trailer has been fsynced: the session is durable, so
  /// later failures must not roll the file back (see Finish()).
  bool commit_trailer_durable_ = false;
  uint64_t base_file_size_ = 0;  // committed size to roll back to
  uint64_t base_txns_ = 0;
  std::vector<SectionEntry> base_offsets_blocks_;  // table order
  std::vector<SectionEntry> base_items_blocks_;
  std::vector<std::string> base_names_;   // dictionary prefix to honor
  std::vector<ItemId> base_parents_;      // taxonomy prefix to honor
  std::vector<ItemId> base_roots_;

  // --- Catalog accumulation. ---
  std::vector<uint32_t> item_freq_;     // global, grown on demand
  std::vector<ItemId> seg_min_;         // per flushed segment
  std::vector<ItemId> seg_max_;
  std::vector<uint64_t> seg_bits_;      // flushed segments x words
  ItemId cur_seg_min_ = kInvalidItem;   // open segment accumulator
  ItemId cur_seg_max_ = 0;
  std::vector<uint64_t> cur_seg_bits_;
};

/// Convenience wrapper: streams an in-memory database into `path`.
Status WriteStoreFile(const std::string& path, const TransactionDb& db,
                      const ItemDictionary& dict, const Taxonomy& taxonomy,
                      const StoreWriter::Options& options = {},
                      FileSystem* fs = nullptr);

}  // namespace storage
}  // namespace flipper

#endif  // FLIPPER_STORAGE_STORE_WRITER_H_
