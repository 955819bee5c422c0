// StoreReader: opens a .fdb FlipperStore file (storage/format.h) and
// exposes its contents as ready-to-mine objects.
//
// The dictionary is a zero-copy view over the file mapping
// (borrowed-span mode of ItemDictionary); the taxonomy — a few KB of
// tree structure — is reconstructed in memory. The delta+varint
// transaction columns are decoded into reader-owned buffers (the spans
// the TransactionDb borrows point at those buffers) in three sharded
// phases: count the varint terminator bytes of every column chunk,
// decode each chunk's varints straight into the final buffers, then
// resolve gaps into item ids and check them over balanced transaction
// ranges. Open() also decodes the segment catalog, which it attaches
// to the database for scan skipping and exposes through catalog().
//
// On platforms without mmap (or with OpenOptions::force_heap) the file
// is read into one aligned heap buffer instead, with identical
// semantics.
//
// Appended stores (StoreWriter::OpenAppend) carry one
// kTxnOffsets/kTxnItems block pair per session; the decode treats the
// blocks, in section-table order, as one logical column. For files
// torn by a crash mid-append, OpenPrefix() recovers the last committed
// state (see PrefixInfo); Open() itself stays strict.
//
// Open() hard-validates the header checksum, the section table, and
// every section's bounds before handing out a single pointer, and the
// column decode proves every CSR offset in range, every item id
// in-range and sorted within its transaction, and the header's derived
// metadata equal to the data — a truncated varint or an out-of-range
// id is a Status error even in trusted mode. With
// OpenOptions::validate (the default) it additionally checks that the
// catalog agrees with the figures the check pass counts from the
// items. A corrupt or truncated file yields a Status error, never UB,
// and the error is the same at every thread count: it names the lowest
// failing transaction.

#ifndef FLIPPER_STORAGE_STORE_READER_H_
#define FLIPPER_STORAGE_STORE_READER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "data/item_dictionary.h"
#include "data/segment_catalog.h"
#include "data/transaction_db.h"
#include "storage/format.h"
#include "storage/mmap_file.h"
#include "taxonomy/taxonomy.h"

namespace flipper {
namespace storage {

/// What StoreReader::OpenPrefix discovered about the physical file —
/// the input to repair (storage/recovery.h).
struct PrefixInfo {
  enum class Recovery {
    kClean,               // committed state == physical file
    kTruncateTail,        // torn append tail after a valid front header
    kRewriteFrontHeader,  // valid commit trailer, stale/torn front header
  };
  Recovery recovery = Recovery::kClean;
  uint64_t physical_size = 0;
  /// file_size of the chosen (committed) header; for kTruncateTail the
  /// bytes past this offset are torn.
  uint64_t committed_size = 0;
  /// The header describing the committed state (for kRewriteFrontHeader
  /// this is the trailer copy repair writes back to offset 0).
  FileHeader committed_header;
  std::string detail;  // human-readable reason for the verdict
};

struct OpenOptions {
  /// Check the segment catalog against the figures the decode's check
  /// pass counts from the items (O(num_items)). Disable only for
  /// trusted files (e.g. open-latency benchmarks); structural checks —
  /// header checksum, section table, section bounds, dictionary
  /// offsets, segment boundaries, taxonomy reconstruction, and the
  /// fully checked varint decode itself — always run.
  bool validate = true;
  /// Skip mmap and read the file into memory (the portable fallback;
  /// also exercised by tests).
  bool force_heap = false;
  /// Borrowed pool for the sharded decode and check passes; results
  /// and errors are the same at every thread count. When null, Open
  /// runs them on a transient hardware-thread pool if a column is
  /// larger than one decode chunk (64 KiB), and inline otherwise, so
  /// small stores never spawn threads.
  ThreadPool* pool = nullptr;
};

class StoreReader {
 public:
  static Result<StoreReader> Open(const std::string& path,
                                  const OpenOptions& options = {});

  /// Best-effort open of the last *committed* state of a possibly torn
  /// file: where Open() requires the front header to describe the
  /// whole file byte-for-byte, OpenPrefix also accepts (a) a valid
  /// front header followed by torn trailing bytes — a crashed append
  /// session — and (b) a valid commit trailer whose front header
  /// rewrite never landed. `info` (optional) receives what was found
  /// and which repair action would make Open() succeed; it is filled
  /// whenever a committed header was identified, even if the committed
  /// payload then fails validation and an error is returned. Repair
  /// (storage/recovery.h) is built on this.
  static Result<StoreReader> OpenPrefix(const std::string& path,
                                        PrefixInfo* info,
                                        const OpenOptions& options = {});

  StoreReader(StoreReader&&) = default;
  StoreReader& operator=(StoreReader&&) = default;
  StoreReader(const StoreReader&) = delete;
  StoreReader& operator=(const StoreReader&) = delete;

  /// Views into the reader's decode buffers (db) and the file mapping
  /// (dict); valid while this reader is alive.
  const TransactionDb& db() const { return db_; }
  const ItemDictionary& dict() const { return dict_; }
  const Taxonomy& taxonomy() const { return taxonomy_; }

  /// Shard boundaries: num_segments + 1 transaction indexes starting
  /// at 0 and ending at num_transactions.
  std::span<const uint64_t> segments() const { return segments_; }

  /// The decoded segment catalog; non-null for every open store. Also
  /// attached to db() for the mining paths.
  const SegmentCatalog* catalog() const { return catalog_.get(); }

  const FileHeader& header() const { return header_; }
  std::span<const SectionEntry> sections() const { return sections_; }
  bool mapped() const { return file_.mapped(); }
  uint64_t file_size() const { return file_.size(); }

  /// Recomputes every section checksum against the table (full file
  /// scan; `flipper_cli inspect` runs this).
  Status VerifyChecksums() const;

 private:
  StoreReader() = default;

  /// Shared tail of Open/OpenPrefix: parses and validates everything
  /// the chosen `header` describes. The header's file_size may be
  /// smaller than the mapping (trailing torn bytes are ignored) but
  /// never larger.
  static Result<StoreReader> OpenParsed(MmapFile file,
                                        const FileHeader& header,
                                        const OpenOptions& options);

  /// Decodes the varint columns into decoded_offsets_ /
  /// decoded_items_ with every check the format allows — truncated or
  /// over-long varints, trailing bytes, width overflow, zero and
  /// out-of-range gaps, out-of-range ids, the header's max_width and
  /// alphabet_size — whether or not the open validates. Appended
  /// stores carry one block pair per session; blocks are concatenated
  /// in table order. Runs sharded on `pool` (may be null). When
  /// `stored` is non-null, the check pass also counts what that
  /// catalog section must match: `counted` gets its per-segment
  /// figures (with the stored tracked ids), `item_freq` the item
  /// supports.
  Status DecodeColumns(const std::byte* base,
                       std::span<const SectionEntry* const> offsets_blocks,
                       std::span<const SectionEntry* const> items_blocks,
                       ThreadPool* pool, const SegmentCatalog* stored,
                       SegmentCatalog* counted,
                       std::vector<uint32_t>* item_freq);

  MmapFile file_;
  FileHeader header_;
  std::vector<SectionEntry> sections_;
  std::span<const uint64_t> segments_;
  /// Decode buffers; the db's borrowed spans point into these.
  std::vector<uint64_t> decoded_offsets_;
  std::vector<ItemId> decoded_items_;
  std::shared_ptr<const SegmentCatalog> catalog_;
  TransactionDb db_;
  ItemDictionary dict_;
  Taxonomy taxonomy_;
};

}  // namespace storage
}  // namespace flipper

#endif  // FLIPPER_STORAGE_STORE_READER_H_
