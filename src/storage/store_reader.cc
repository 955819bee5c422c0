#include "storage/store_reader.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <optional>

#include "common/trace.h"
#include "storage/varint.h"
#include "taxonomy/taxonomy_builder.h"

namespace flipper {
namespace storage {
namespace {

Status Corrupt(const std::string& what) {
  return Status::CorruptedData("store file: " + what);
}

std::span<const uint64_t> U64Span(const std::byte* base,
                                  const SectionEntry& e) {
  return {reinterpret_cast<const uint64_t*>(base + e.offset),
          static_cast<size_t>(e.size / sizeof(uint64_t))};
}

std::span<const uint32_t> U32Span(const std::byte* base,
                                  const SectionEntry& e) {
  return {reinterpret_cast<const uint32_t*>(base + e.offset),
          static_cast<size_t>(e.size / sizeof(uint32_t))};
}

/// Requires the section to hold exactly `count` elements of
/// `elem_size` bytes.
Status CheckElementCount(const SectionEntry& e, uint64_t count,
                         uint64_t elem_size) {
  if (e.size % elem_size != 0 || e.size / elem_size != count) {
    return Corrupt(std::string(SectionIdName(SectionId(e.id))) +
                   " section holds " + std::to_string(e.size) +
                   " bytes, expected " + std::to_string(count) +
                   " x " + std::to_string(elem_size));
  }
  return Status::OK();
}

/// Parses and checks a FileHeader at `at` (magic, version, checksum —
/// everything that can be judged from the 104 bytes alone).
Result<FileHeader> ParseHeaderAt(const std::byte* at, uint64_t avail,
                                 const std::string& path) {
  if (avail < sizeof(FileHeader)) {
    return Corrupt("truncated header (" + std::to_string(avail) +
                   " bytes, need " + std::to_string(sizeof(FileHeader)) +
                   "): " + path);
  }
  FileHeader h;
  std::memcpy(&h, at, sizeof(h));
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt("bad magic, not a FlipperStore file: " + path);
  }
  if (h.version != kFormatVersion) {
    std::string msg = "unsupported store version " +
                      std::to_string(h.version) +
                      " (this build reads version " +
                      std::to_string(kFormatVersion) + "): " + path;
    if (h.version < kFormatVersion) {
      msg += " — rewrite it with `flipper_cli convert --from-fdb` on a "
             "build that still reads version " +
             std::to_string(h.version);
    }
    return Status::InvalidArgument(std::move(msg));
  }
  if (HeaderChecksum(h) != h.header_checksum) {
    return Corrupt("header checksum mismatch: " + path);
  }
  return h;
}

/// Smallest varint column chunk of the sharded decode. A store whose
/// columns fit one chunk each opens inline (see OpenOptions::pool).
constexpr uint64_t kMinChunkBytes = 64 * 1024;
/// Column chunks per pool thread, so one slow chunk cannot stall the
/// decode.
constexpr uint64_t kChunksPerThread = 4;
/// Transactions per shard of the check pass (below this, per-shard
/// catalog buffers and their merge outweigh the parallelism).
constexpr size_t kMinTxnsPerShard = 1024;
/// ColumnChunk::bad when the chunk decoded every value it owns.
constexpr uint64_t kNoBadValue = std::numeric_limits<uint64_t>::max();

// Payload error messages.
Status WidthOverflow(uint64_t txn) {
  return Corrupt("transaction width overflows at txn " +
                 std::to_string(txn));
}
Status ItemOutOfRange(uint64_t item, uint64_t txn) {
  return Corrupt("item id " + std::to_string(item) +
                 " out of range in txn " + std::to_string(txn));
}
Status ItemsNotSorted(uint64_t txn) {
  return Corrupt("items of txn " + std::to_string(txn) +
                 " are not sorted and duplicate-free");
}
Status MismatchWithHeader(const char* field, uint64_t recorded,
                          uint64_t actual) {
  return Corrupt(std::string(field) + " mismatch: header records " +
                 std::to_string(recorded) + ", data has " +
                 std::to_string(actual));
}

uint64_t ColumnBytes(std::span<const SectionEntry* const> blocks) {
  uint64_t bytes = 0;
  for (const SectionEntry* e : blocks) bytes += e->size;
  return bytes;
}

/// A byte range of one varint column block. The chunk owns the varints
/// whose terminator byte (high bit clear) lies inside it; the first of
/// them may start in the chunk before. Blocks end on transaction
/// boundaries, so a varint never spans two blocks: bytes past a
/// block's last terminator are a truncated varint.
struct ColumnChunk {
  const uint8_t* block_begin = nullptr;
  const uint8_t* begin = nullptr;
  const uint8_t* end = nullptr;
  bool block_last = false;  // the chunk ends its block
  uint64_t first = 0;       // column index of the first owned varint
  uint64_t count = 0;       // owned varints (terminator bytes)
  /// Column index of the chunk's first value the decode could not
  /// store: a truncated or over-long varint or, when `oversize`, a
  /// well-formed `value` at or above the column's bound.
  uint64_t bad = kNoBadValue;
  bool oversize = false;
  uint64_t value = 0;
};

/// Splits a column into chunks of `chunk_bytes` (the last chunk of
/// each block may be shorter), in column order.
std::vector<ColumnChunk> SplitColumn(
    const std::byte* base, std::span<const SectionEntry* const> blocks,
    uint64_t chunk_bytes) {
  std::vector<ColumnChunk> chunks;
  for (const SectionEntry* e : blocks) {
    const auto* block = reinterpret_cast<const uint8_t*>(base + e->offset);
    for (uint64_t at = 0; at < e->size; at += chunk_bytes) {
      ColumnChunk c;
      c.block_begin = block;
      c.begin = block + at;
      c.end = block + std::min(e->size, at + chunk_bytes);
      c.block_last = c.end == block + e->size;
      chunks.push_back(c);
    }
  }
  return chunks;
}

/// Bytes per chunk of a `column_bytes` column decoded by `threads`.
uint64_t ChunkBytes(uint64_t column_bytes, int threads) {
  return std::max(kMinChunkBytes,
                  column_bytes / (kChunksPerThread *
                                  static_cast<uint64_t>(threads)));
}

/// Bytes in [p, end) with the high bit clear, i.e. varint terminators.
uint64_t CountTerminators(const uint8_t* p, const uint8_t* end) {
  uint64_t count = 0;
  for (; end - p >= 8; p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    count += static_cast<uint64_t>(
        std::popcount(~word & 0x8080808080808080ull));
  }
  for (; p < end; ++p) count += *p < 0x80;
  return count;
}

/// Decodes the varints `c` owns into out[first..], stopping at the
/// column's `expected` count, at the first bad value (recorded in `c`)
/// or — when `c` ends its block — flagging the block's unterminated
/// tail as a bad value at the next index.
template <typename T>
void DecodeChunk(uint64_t expected, uint64_t bound, T* out,
                 ColumnChunk* c) {
  // The first owned varint starts past the last terminator before the
  // chunk. One that started more than kMaxVarintBytes back is over-long
  // whatever its start, and GetVarint rejects it from here too.
  const uint8_t* p = c->begin;
  const uint8_t* floor =
      p - std::min<ptrdiff_t>(kMaxVarintBytes, p - c->block_begin);
  while (p > floor && p[-1] >= 0x80) --p;
  const uint64_t n =
      c->first < expected ? std::min(c->count, expected - c->first) : 0;
  for (uint64_t k = 0; k < n; ++k) {
    uint64_t value = 0;
    if (!GetVarint(&p, c->end, &value)) {
      c->bad = c->first + k;
      return;
    }
    if (value >= bound) {
      c->bad = c->first + k;
      c->oversize = true;
      c->value = value;
      return;
    }
    out[c->first + k] = static_cast<T>(value);
  }
  if (n == c->count && c->block_last && p != c->end) {
    c->bad = c->first + c->count;
  }
}

/// Where a decoded column first goes wrong, in the order a serial
/// reader finds it.
struct ColumnVerdict {
  /// Index of the first value that did not decode in range (truncated,
  /// over-long, missing, or `oversize`), or the expected count when
  /// every expected value did.
  uint64_t stop = 0;
  bool oversize = false;
  uint64_t value = 0;  // the oversize value
  /// Bytes follow the expected count's last varint.
  bool trailing = false;
};

/// The verdict on a column of `expected` values from its decoded chunks
/// (in column order, so the first bad chunk holds the lowest bad value).
ColumnVerdict Verdict(std::span<const ColumnChunk> chunks,
                      uint64_t expected) {
  uint64_t total = 0;
  const ColumnChunk* bad = nullptr;
  for (const ColumnChunk& c : chunks) {
    total += c.count;
    if (bad == nullptr && c.bad != kNoBadValue) bad = &c;
  }
  ColumnVerdict verdict;
  verdict.stop = std::min(expected, total);
  if (bad != nullptr && bad->bad <= verdict.stop) {
    verdict.stop = bad->bad;
    verdict.oversize = bad->oversize;
    verdict.value = bad->value;
  }
  verdict.trailing =
      total > expected || (bad != nullptr && bad->bad >= expected);
  return verdict;
}

/// Counts, shard by shard in the check pass, the figures a stored
/// catalog section must match: item supports, and per segment the item
/// bounds, the bitset and the supports of the section's tracked ids —
/// what SegmentCatalog::Build produces with those tracked ids. A shard
/// only counts items per segment (one increment each) and folds the
/// distinct ones into the figures when it leaves the segment.
class CatalogCounter {
 public:
  /// One shard's counts, for the segments from `first_segment` on that
  /// its transaction range overlaps.
  struct Shard {
    size_t first_segment = 0;
    size_t segment = 0;            // segment being counted
    std::vector<uint32_t> counts;  // its item counts so far
    std::vector<ItemId> touched;   // its items with a nonzero count
    std::vector<uint32_t> freq;
    std::vector<ItemId> min_item;
    std::vector<ItemId> max_item;
    std::vector<uint64_t> bits;
    std::vector<uint32_t> tracked_supports;
  };

  /// `stored` passed the structural checks, so its tracked ids are
  /// below `alphabet`.
  CatalogCounter(const SegmentCatalog& stored, uint32_t alphabet)
      : stored_(stored),
        alphabet_(alphabet),
        total_(NewShard(0, stored.num_segments())) {}

  /// An empty shard for transactions [lo, hi), hi > lo.
  Shard Begin(size_t lo, size_t hi) const {
    const auto bounds = stored_.boundaries();
    const auto segment_of = [&](size_t t) {
      return static_cast<size_t>(
          std::upper_bound(bounds.begin(), bounds.end(), t) -
          bounds.begin() - 1);
    };
    const size_t first = segment_of(lo);
    Shard s = NewShard(first, segment_of(hi - 1) + 1 - first);
    s.counts.assign(alphabet_, 0);
    return s;
  }

  /// Counts transaction `txn` (ascending within a shard).
  void Add(Shard* s, size_t txn, std::span<const ItemId> items) const {
    const auto bounds = stored_.boundaries();
    if (txn >= bounds[s->segment + 1]) {
      Fold(s);
      while (txn >= bounds[s->segment + 1]) ++s->segment;
    }
    for (const ItemId item : items) {
      if (s->counts[item]++ == 0) s->touched.push_back(item);
    }
  }

  /// Folds a finished shard into the totals (call in shard order).
  void Merge(Shard* s) {
    Fold(s);
    for (size_t i = 0; i < s->freq.size(); ++i) {
      total_.freq[i] += s->freq[i];
    }
    const size_t words = stored_.bitset_words();
    const size_t tracked = stored_.tracked_ids().size();
    for (size_t j = 0; j < s->min_item.size(); ++j) {
      const size_t seg = s->first_segment + j;
      total_.min_item[seg] = std::min(total_.min_item[seg], s->min_item[j]);
      total_.max_item[seg] = std::max(total_.max_item[seg], s->max_item[j]);
      for (size_t w = 0; w < words; ++w) {
        total_.bits[seg * words + w] |= s->bits[j * words + w];
      }
      for (size_t i = 0; i < tracked; ++i) {
        total_.tracked_supports[seg * tracked + i] +=
            s->tracked_supports[j * tracked + i];
      }
    }
  }

  /// The merged totals as a catalog with the stored tracked ids, plus
  /// the item supports.
  SegmentCatalog TakeCounted(std::vector<uint32_t>* item_freq) {
    *item_freq = std::move(total_.freq);
    const auto bounds = stored_.boundaries();
    const auto tracked = stored_.tracked_ids();
    return SegmentCatalog::FromParts(
        std::vector<uint64_t>(bounds.begin(), bounds.end()),
        stored_.bitset_words(),
        std::vector<ItemId>(tracked.begin(), tracked.end()),
        std::move(total_.min_item), std::move(total_.max_item),
        std::move(total_.bits), std::move(total_.tracked_supports));
  }

 private:
  Shard NewShard(size_t first_segment, size_t segments) const {
    Shard s;
    s.first_segment = first_segment;
    s.segment = first_segment;
    s.freq.assign(alphabet_, 0);
    s.min_item.assign(segments, kInvalidItem);
    s.max_item.assign(segments, 0);
    s.bits.assign(segments * stored_.bitset_words(), 0);
    s.tracked_supports.assign(segments * stored_.tracked_ids().size(), 0);
    return s;
  }

  /// Folds the counts of the shard's current segment into its figures
  /// and clears them.
  void Fold(Shard* s) const {
    if (s->touched.empty()) return;  // nothing counted (or no range)
    const size_t j = s->segment - s->first_segment;
    uint64_t* bits = s->bits.data() + j * stored_.bitset_words();
    ItemId lo = s->min_item[j];
    ItemId hi = s->max_item[j];
    for (const ItemId item : s->touched) {
      s->freq[item] += s->counts[item];
      lo = std::min(lo, item);
      hi = std::max(hi, item);
      const uint32_t bit = stored_.BitIndex(item);
      bits[bit / 64] |= uint64_t{1} << (bit % 64);
    }
    s->min_item[j] = lo;
    s->max_item[j] = hi;
    const auto tracked = stored_.tracked_ids();
    for (size_t i = 0; i < tracked.size(); ++i) {
      s->tracked_supports[j * tracked.size() + i] += s->counts[tracked[i]];
    }
    for (const ItemId item : s->touched) s->counts[item] = 0;
    s->touched.clear();
  }

  const SegmentCatalog& stored_;
  uint32_t alphabet_;
  Shard total_;
};

/// The outcome of the sharded check pass.
struct TxnCheck {
  std::optional<Status> error;  // names the lowest failing transaction
  uint64_t alphabet = 0;        // max item + 1, or 0 without items
  uint32_t max_width = 0;
};

/// Runs `check(t, &txn)` over transactions [0, num_txns) in balanced
/// shards on `pool`: it returns transaction t's error, or stores its
/// item ids (sorted) in `txn`. Each shard stops at its first failing
/// transaction and shards cover ascending ranges, so the first failing
/// shard names the lowest failing transaction at every thread count.
/// A `counter` also counts the catalog figures of every checked
/// transaction, merged in shard order.
template <typename Check>
TxnCheck CheckTransactions(ThreadPool* pool, size_t num_txns,
                           const Check& check, CatalogCounter* counter) {
  struct Shard {
    TxnCheck check;
    CatalogCounter::Shard catalog;
  };
  const int num_shards = ShardCount(num_txns, pool, kMinTxnsPerShard);
  std::vector<Shard> shards(static_cast<size_t>(num_shards));
  ParallelFor(pool, 0, num_txns, num_shards,
              [&](int s, size_t lo, size_t hi) {
                Shard& shard = shards[static_cast<size_t>(s)];
                TxnCheck& out = shard.check;
                if (counter != nullptr) shard.catalog = counter->Begin(lo, hi);
                for (size_t t = lo; t < hi; ++t) {
                  std::span<const ItemId> txn;
                  if ((out.error = check(t, &txn))) return;
                  if (!txn.empty()) {
                    out.alphabet =
                        std::max<uint64_t>(out.alphabet, txn.back() + 1ull);
                  }
                  out.max_width = std::max(out.max_width,
                                           static_cast<uint32_t>(txn.size()));
                  if (counter != nullptr) counter->Add(&shard.catalog, t, txn);
                }
              });
  TxnCheck out;
  for (Shard& shard : shards) {
    if (shard.check.error) return std::move(shard.check);
    out.alphabet = std::max(out.alphabet, shard.check.alphabet);
    out.max_width = std::max(out.max_width, shard.check.max_width);
    if (counter != nullptr) counter->Merge(&shard.catalog);
  }
  return out;
}

/// Parses the segment catalog section with the structural checks
/// (layout, id ranges, supports within segment sizes); whether it
/// agrees with the items is CheckCatalog's job.
Result<SegmentCatalog> ParseCatalog(const FileHeader& h,
                                      std::span<const uint64_t> segments,
                                      const std::byte* base,
                                      const SectionEntry& entry) {
  if (entry.size < sizeof(SegCatalogHeader)) {
    return Corrupt("seg_catalog section is too small for its header");
  }
  SegCatalogHeader ch;
  std::memcpy(&ch, base + entry.offset, sizeof(ch));
  if (ch.bitset_words == 0 || ch.bitset_words > kMaxCatalogBitsetWords) {
    return Corrupt("seg_catalog bitset length is invalid (" +
                   std::to_string(ch.bitset_words) + " words)");
  }
  if (ch.tracked_count > h.alphabet_size) {
    return Corrupt("seg_catalog tracks more items than the alphabet");
  }
  const uint64_t expected =
      sizeof(SegCatalogHeader) +
      uint64_t{ch.tracked_count} * sizeof(uint32_t) +
      h.num_segments *
          SegCatalogRecordBytes(ch.tracked_count, ch.bitset_words);
  if (entry.size != expected) {
    return Corrupt(
        "seg_catalog section holds " + std::to_string(entry.size) +
        " bytes, expected " + std::to_string(expected) + " for " +
        std::to_string(h.num_segments) + " segments (bitset/tracked "
        "length mismatch?)");
  }

  const auto* cursor = reinterpret_cast<const uint8_t*>(
      base + entry.offset + sizeof(SegCatalogHeader));
  const auto read_u32 = [&cursor]() {
    uint32_t v;
    std::memcpy(&v, cursor, sizeof(v));
    cursor += sizeof(v);
    return v;
  };
  const auto read_u64 = [&cursor]() {
    uint64_t v;
    std::memcpy(&v, cursor, sizeof(v));
    cursor += sizeof(v);
    return v;
  };

  std::vector<ItemId> tracked_ids(ch.tracked_count);
  for (uint32_t i = 0; i < ch.tracked_count; ++i) {
    tracked_ids[i] = read_u32();
    if (tracked_ids[i] >= h.alphabet_size) {
      return Corrupt("seg_catalog tracked item id out of range");
    }
  }

  std::vector<ItemId> min_item(h.num_segments);
  std::vector<ItemId> max_item(h.num_segments);
  std::vector<uint64_t> bits;
  bits.reserve(h.num_segments * ch.bitset_words);
  std::vector<uint32_t> tracked_supports;
  tracked_supports.reserve(h.num_segments * ch.tracked_count);
  for (uint64_t seg = 0; seg < h.num_segments; ++seg) {
    min_item[seg] = read_u32();
    max_item[seg] = read_u32();
    const bool empty_segment =
        min_item[seg] == kInvalidItem && max_item[seg] == 0;
    if (!empty_segment &&
        (min_item[seg] > max_item[seg] ||
         max_item[seg] >= h.alphabet_size)) {
      return Corrupt("seg_catalog segment " + std::to_string(seg) +
                     " has out-of-range item bounds");
    }
    for (uint32_t w = 0; w < ch.bitset_words; ++w) {
      bits.push_back(read_u64());
    }
    const uint64_t seg_txns = segments[seg + 1] - segments[seg];
    for (uint32_t i = 0; i < ch.tracked_count; ++i) {
      const uint32_t support = read_u32();
      if (support > seg_txns) {
        return Corrupt("seg_catalog segment " + std::to_string(seg) +
                       " records a support above its size");
      }
      tracked_supports.push_back(support);
    }
  }

  return SegmentCatalog::FromParts(
      std::vector<uint64_t>(segments.begin(), segments.end()),
      ch.bitset_words, std::move(tracked_ids), std::move(min_item),
      std::move(max_item), std::move(bits), std::move(tracked_supports));
}

/// Rejects a stored catalog that disagrees with the figures the check
/// pass counted from the items: it could mislead scan skipping into
/// wrong supports. (Equality holds for an honest section because the
/// writer and the count share the top-K selection and the bit hash.)
Status CheckCatalog(const SegmentCatalog& stored,
                    const SegmentCatalog& counted,
                    std::span<const uint32_t> item_freq) {
  const auto mismatch = [](const std::string& what) {
    return Corrupt("seg_catalog disagrees with the items column (" + what +
                   ")");
  };
  const auto same = [](auto a, auto b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  const std::vector<ItemId> tracked = SegmentCatalog::TopKByFrequency(
      item_freq, static_cast<uint32_t>(stored.tracked_ids().size()));
  if (!same(std::span<const ItemId>(tracked), stored.tracked_ids())) {
    return mismatch("tracked items");
  }
  for (size_t seg = 0; seg < stored.num_segments(); ++seg) {
    if (stored.min_item(seg) != counted.min_item(seg) ||
        stored.max_item(seg) != counted.max_item(seg)) {
      return mismatch("segment item bounds");
    }
    if (!same(stored.segment_bits(seg), counted.segment_bits(seg))) {
      return mismatch("segment bitsets");
    }
    if (!same(stored.segment_tracked_supports(seg),
              counted.segment_tracked_supports(seg))) {
      return mismatch("tracked supports");
    }
  }
  return Status::OK();
}

}  // namespace

Status StoreReader::DecodeColumns(
    const std::byte* base,
    std::span<const SectionEntry* const> offsets_blocks,
    std::span<const SectionEntry* const> items_blocks, ThreadPool* pool,
    const SegmentCatalog* stored, SegmentCatalog* counted,
    std::vector<uint32_t>* item_freq) {
  const FileHeader& h = header_;
  const uint64_t num_txns = h.num_transactions;

  // Every varint occupies at least one byte, so the header counts are
  // bounded by the section sizes. Checking first keeps the buffer
  // allocations below from ballooning on a corrupt header (allocation
  // failure would escape as bad_alloc, not a Status).
  const uint64_t offsets_bytes = ColumnBytes(offsets_blocks);
  const uint64_t items_bytes = ColumnBytes(items_blocks);
  if (num_txns > offsets_bytes) {
    return Corrupt("txn_offsets section is too small for " +
                   std::to_string(num_txns) + " transactions");
  }
  if (h.num_items > items_bytes) {
    return Corrupt("txn_items section is too small for " +
                   std::to_string(h.num_items) + " items");
  }

  // --- Phases 1-2: count each chunk's varints, then decode them in
  // place — widths into decoded_offsets_[1..], item gaps into
  // decoded_items_. Values at or above a column's bound (a width past
  // 32 bits, a gap or id outside the alphabet) stop the decode. ---
  ColumnVerdict items_verdict;
  {
    FLIPPER_TRACE_SPAN("store_decode", "detail");
    const int threads = pool != nullptr ? pool->num_threads() : 1;
    std::vector<ColumnChunk> width_chunks = SplitColumn(
        base, offsets_blocks, ChunkBytes(offsets_bytes, threads));
    std::vector<ColumnChunk> item_chunks =
        SplitColumn(base, items_blocks, ChunkBytes(items_bytes, threads));
    const size_t num_width_chunks = width_chunks.size();
    const size_t num_chunks = num_width_chunks + item_chunks.size();
    const auto chunk = [&](size_t i) -> ColumnChunk& {
      return i < num_width_chunks ? width_chunks[i]
                                  : item_chunks[i - num_width_chunks];
    };
    decoded_offsets_.resize(num_txns + 1);
    decoded_items_.resize(h.num_items);

    const auto for_each_chunk = [&](const auto& fn) {
      ParallelFor(pool, 0, num_chunks, static_cast<int>(num_chunks),
                  [&](int, size_t lo, size_t hi) {
                    for (size_t i = lo; i < hi; ++i) fn(i, &chunk(i));
                  });
    };
    for_each_chunk([](size_t, ColumnChunk* c) {
      c->count = CountTerminators(c->begin, c->end);
    });
    for (std::vector<ColumnChunk>* column : {&width_chunks, &item_chunks}) {
      uint64_t first = 0;
      for (ColumnChunk& c : *column) {
        c.first = first;
        first += c.count;
      }
    }
    for_each_chunk([&](size_t i, ColumnChunk* c) {
      if (i < num_width_chunks) {
        DecodeChunk(num_txns, uint64_t{1} << 32, decoded_offsets_.data() + 1,
                    c);
      } else {
        DecodeChunk(h.num_items, h.alphabet_size, decoded_items_.data(), c);
      }
    });

    const ColumnVerdict widths = Verdict(width_chunks, num_txns);
    if (widths.stop < num_txns) {
      return widths.oversize
                 ? WidthOverflow(widths.stop)
                 : Corrupt("truncated varint in txn_offsets at txn " +
                           std::to_string(widths.stop));
    }
    if (widths.trailing) {
      return Corrupt("txn_offsets section has trailing bytes");
    }
    uint64_t* offsets = decoded_offsets_.data();
    uint64_t max_width = 0;
    for (uint64_t t = 1; t <= num_txns; ++t) {
      max_width = std::max(max_width, offsets[t]);
      offsets[t] += offsets[t - 1];
    }
    if (offsets[num_txns] != h.num_items) {
      return Corrupt("transaction offsets do not span the items");
    }
    if (max_width != h.max_width) {
      return MismatchWithHeader("max_width", h.max_width, max_width);
    }
    items_verdict = Verdict(item_chunks, h.num_items);
  }

  // --- Phase 3: resolve gaps into ids over balanced transaction
  // ranges, checking every value before the items column's stop. ---
  FLIPPER_TRACE_SPAN("store_check", "detail");
  const std::span<const uint64_t> offsets = decoded_offsets_;
  const uint64_t stop = items_verdict.stop;
  // The transaction holding value `stop` is the last one checked.
  const size_t check_txns =
      stop < h.num_items
          ? static_cast<size_t>(std::upper_bound(offsets.begin(),
                                                 offsets.end(), stop) -
                                offsets.begin())
          : num_txns;
  ItemId* items = decoded_items_.data();
  const uint32_t alphabet = h.alphabet_size;
  const auto resolve = [&](size_t t, std::span<const ItemId>* txn)
      -> std::optional<Status> {
    const uint64_t lo = offsets[t];
    const uint64_t hi = std::min(offsets[t + 1], stop);
    // The decode bounded every value below the alphabet, so the first
    // one is an in-range id and only a zero gap or the running id can
    // fail here.
    if (lo < hi) {
      uint64_t item = items[lo];
      for (uint64_t v = lo + 1; v < hi; ++v) {
        if (items[v] == 0) return ItemsNotSorted(t);
        item += items[v];
        if (item >= alphabet) return ItemOutOfRange(item, t);
        items[v] = static_cast<ItemId>(item);
      }
    }
    *txn = {items + lo, static_cast<size_t>(hi - lo)};
    return std::nullopt;
  };
  std::optional<CatalogCounter> counter;
  if (stored != nullptr) counter.emplace(*stored, alphabet);
  TxnCheck check = CheckTransactions(pool, check_txns, resolve,
                                     counter ? &*counter : nullptr);
  if (check.error) return *std::move(check.error);
  if (stop < h.num_items) {
    const size_t t = check_txns - 1;
    if (!items_verdict.oversize) {
      return Corrupt("truncated varint in txn_items at txn " +
                     std::to_string(t));
    }
    // The value the decode refused fails as a serial read would see it:
    // an id when it opens its transaction, a gap otherwise.
    const uint64_t value = items_verdict.value;
    if (stop == offsets[t]) return ItemOutOfRange(value, t);
    if (value == 0) return ItemsNotSorted(t);
    return Corrupt("item gap " + std::to_string(value) +
                   " out of range in txn " + std::to_string(t));
  }
  if (items_verdict.trailing) {
    return Corrupt("txn_items section has trailing bytes");
  }
  if (check.alphabet != alphabet) {
    return MismatchWithHeader("alphabet_size", alphabet, check.alphabet);
  }
  if (counter) *counted = counter->TakeCounted(item_freq);
  return Status::OK();
}

Result<StoreReader> StoreReader::Open(const std::string& path,
                                      const OpenOptions& options) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::Internal(
        "FlipperStore requires a little-endian host (fixed LE format)");
  }
  MmapFile file;
  FLIPPER_ASSIGN_OR_RETURN(file, MmapFile::Open(path, options.force_heap));
  FLIPPER_ASSIGN_OR_RETURN(
      FileHeader h, ParseHeaderAt(file.data(), file.size(), path));
  if (h.file_size > file.size()) {
    return Corrupt("file size mismatch (truncated?): header records " +
                   std::to_string(h.file_size) + " bytes, file has " +
                   std::to_string(file.size()));
  }
  if (h.file_size < file.size()) {
    return Corrupt(
        "file has " + std::to_string(file.size() - h.file_size) +
        " trailing bytes past the committed store (torn append "
        "session?): header records " + std::to_string(h.file_size) +
        " bytes, file has " + std::to_string(file.size()) +
        " — run `flipper_cli repair` to truncate the torn tail");
  }
  return OpenParsed(std::move(file), h, options);
}

Result<StoreReader> StoreReader::OpenPrefix(const std::string& path,
                                            PrefixInfo* info,
                                            const OpenOptions& options) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::Internal(
        "FlipperStore requires a little-endian host (fixed LE format)");
  }
  MmapFile file;
  FLIPPER_ASSIGN_OR_RETURN(file, MmapFile::Open(path, options.force_heap));
  const std::byte* base = file.data();
  const uint64_t physical = file.size();

  PrefixInfo local;
  PrefixInfo& out = info != nullptr ? *info : local;
  out = PrefixInfo{};
  out.physical_size = physical;

  const Result<FileHeader> front = ParseHeaderAt(base, physical, path);

  // A commit trailer ends with a header copy whose file_size equals
  // the physical size — self-validating, so a partial trailer (or the
  // tail of an ordinary fresh store) never masquerades as one.
  bool tail_valid = false;
  FileHeader tail;
  if (physical >= sizeof(FileHeader)) {
    const Result<FileHeader> t = ParseHeaderAt(
        base + (physical - sizeof(FileHeader)), sizeof(FileHeader), path);
    if (t.ok() && t->file_size == physical) {
      tail = *t;
      tail_valid = true;
    }
  }

  if (tail_valid) {
    const bool front_matches =
        front.ok() &&
        std::memcmp(base, base + (physical - sizeof(FileHeader)),
                    sizeof(FileHeader)) == 0;
    out.committed_size = physical;
    out.committed_header = tail;
    if (front_matches) {
      out.recovery = PrefixInfo::Recovery::kClean;
      out.detail = "front header and commit trailer agree";
    } else {
      // The commit point was reached; only the front-header rewrite is
      // missing (or tore). Redo it from the trailer.
      out.recovery = PrefixInfo::Recovery::kRewriteFrontHeader;
      out.detail = front.ok()
                       ? "front header is stale (crash between the "
                         "commit trailer and the front-header rewrite)"
                       : "front header is torn but the commit trailer "
                         "is intact";
    }
    return OpenParsed(std::move(file), tail, options);
  }

  if (front.ok()) {
    const FileHeader& h = *front;
    out.committed_size = h.file_size;
    out.committed_header = h;
    if (h.file_size == physical) {
      out.recovery = PrefixInfo::Recovery::kClean;
      out.detail = "header spans the file exactly";
      return OpenParsed(std::move(file), h, options);
    }
    if (h.file_size < physical) {
      out.recovery = PrefixInfo::Recovery::kTruncateTail;
      out.detail = std::to_string(physical - h.file_size) +
                   " torn bytes past the committed store "
                   "(crashed append session)";
      return OpenParsed(std::move(file), h, options);
    }
    out.committed_size = 0;
    return Corrupt("header records " + std::to_string(h.file_size) +
                   " bytes but the file holds only " +
                   std::to_string(physical) +
                   " — the committed data itself is incomplete: " + path);
  }

  return Status(front.status().code(),
                "no committed state found (front header: " +
                    front.status().message() +
                    "; no valid commit trailer)");
}

Result<StoreReader> StoreReader::OpenParsed(MmapFile file,
                                            const FileHeader& header,
                                            const OpenOptions& options) {
  StoreReader reader;
  reader.file_ = std::move(file);
  reader.header_ = header;
  const std::byte* base = reader.file_.data();
  const FileHeader& h = reader.header_;
  // Everything the header describes must live inside [0, limit);
  // OpenPrefix may map torn bytes past it.
  const uint64_t limit = h.file_size;

  if (h.num_transactions >
      static_cast<uint64_t>(std::numeric_limits<TxnId>::max())) {
    return Corrupt("transaction count exceeds the TxnId range");
  }

  // --- Section table. ---
  if (h.section_count < kMinSectionCount) {
    return Corrupt("store files carry at least " +
                   std::to_string(kMinSectionCount) + " sections, found " +
                   std::to_string(h.section_count));
  }
  if (h.section_count > kMaxSectionCount) {
    return Corrupt("section count " + std::to_string(h.section_count) +
                   " is implausibly large");
  }
  const uint64_t table_bytes =
      uint64_t{h.section_count} * sizeof(SectionEntry);
  const uint64_t table_offset =
      h.table_offset == 0 ? sizeof(FileHeader) : h.table_offset;
  if (table_offset % kSectionAlignment != 0 ||
      table_offset < sizeof(FileHeader) || table_offset > limit) {
    return Corrupt("section table offset " +
                   std::to_string(h.table_offset) + " is invalid");
  }
  if (limit - table_offset < table_bytes) {
    return Corrupt("truncated section table");
  }
  reader.sections_.resize(h.section_count);
  std::memcpy(reader.sections_.data(), base + table_offset, table_bytes);
  if (Fnv1a64(reader.sections_.data(), table_bytes) != h.table_checksum) {
    return Corrupt("section table checksum mismatch");
  }

  // Singleton sections are unique; the two transaction columns may
  // appear as several blocks (one pair per append session).
  const auto is_column = [](uint32_t id) {
    return id == static_cast<uint32_t>(SectionId::kTxnOffsets) ||
           id == static_cast<uint32_t>(SectionId::kTxnItems);
  };
  const SectionEntry* by_id[kMinSectionCount] = {};
  std::vector<const SectionEntry*> offsets_blocks;
  std::vector<const SectionEntry*> items_blocks;
  for (const SectionEntry& e : reader.sections_) {
    if (e.id < 1 || e.id > kMinSectionCount) {
      return Corrupt("unknown section id " + std::to_string(e.id));
    }
    if (e.offset % kSectionAlignment != 0) {
      return Corrupt(std::string(SectionIdName(SectionId(e.id))) +
                     " section is misaligned");
    }
    if (e.offset > limit || limit - e.offset < e.size) {
      return Corrupt(std::string(SectionIdName(SectionId(e.id))) +
                     " section extends past end of file");
    }
    if (is_column(e.id)) {
      (e.id == static_cast<uint32_t>(SectionId::kTxnOffsets)
           ? offsets_blocks
           : items_blocks)
          .push_back(&e);
      continue;
    }
    if (by_id[e.id - 1] != nullptr) {
      return Corrupt(std::string("duplicate section ") +
                     SectionIdName(SectionId(e.id)));
    }
    by_id[e.id - 1] = &e;
  }
  for (uint32_t id = 1; id <= kMinSectionCount; ++id) {
    if (!is_column(id) && by_id[id - 1] == nullptr) {
      return Corrupt(std::string("missing section ") +
                     SectionIdName(SectionId(id)));
    }
  }
  if (offsets_blocks.empty() ||
      offsets_blocks.size() != items_blocks.size()) {
    return Corrupt("column blocks are unpaired: " +
                   std::to_string(offsets_blocks.size()) +
                   " txn_offsets vs " +
                   std::to_string(items_blocks.size()) +
                   " txn_items blocks");
  }
  const auto section = [&](SectionId id) -> const SectionEntry& {
    return *by_id[static_cast<uint32_t>(id) - 1];
  };

  // --- Element counts against the header (fixed-width sections). ---
  FLIPPER_RETURN_IF_ERROR(CheckElementCount(
      section(SectionId::kSegments), h.num_segments + 1,
      sizeof(uint64_t)));
  FLIPPER_RETURN_IF_ERROR(CheckElementCount(
      section(SectionId::kDictOffsets), uint64_t{h.dict_size} + 1,
      sizeof(uint64_t)));
  FLIPPER_RETURN_IF_ERROR(CheckElementCount(
      section(SectionId::kTaxParents), h.taxonomy_id_space,
      sizeof(uint32_t)));
  FLIPPER_RETURN_IF_ERROR(CheckElementCount(
      section(SectionId::kTaxRoots), h.taxonomy_num_roots,
      sizeof(uint32_t)));

  const std::span<const uint64_t> segments =
      U64Span(base, section(SectionId::kSegments));
  const std::span<const uint64_t> name_offsets =
      U64Span(base, section(SectionId::kDictOffsets));
  const SectionEntry& blob_entry = section(SectionId::kDictBlob);
  const std::string_view blob(
      reinterpret_cast<const char*>(base + blob_entry.offset),
      static_cast<size_t>(blob_entry.size));
  const std::span<const uint32_t> parents =
      U32Span(base, section(SectionId::kTaxParents));
  const std::span<const uint32_t> roots =
      U32Span(base, section(SectionId::kTaxRoots));

  // --- Cheap structural validation (always on). ---
  if (h.alphabet_size > h.dict_size) {
    return Corrupt("alphabet_size " + std::to_string(h.alphabet_size) +
                   " exceeds dictionary size " +
                   std::to_string(h.dict_size));
  }
  if (h.taxonomy_id_space > h.dict_size) {
    return Corrupt("taxonomy id space " +
                   std::to_string(h.taxonomy_id_space) +
                   " exceeds dictionary size " +
                   std::to_string(h.dict_size));
  }
  if (name_offsets.front() != 0 || name_offsets.back() != blob.size()) {
    return Corrupt("dictionary offsets do not span the name blob");
  }
  for (size_t i = 0; i + 1 < name_offsets.size(); ++i) {
    if (name_offsets[i] > name_offsets[i + 1]) {
      return Corrupt("dictionary offsets are not monotone");
    }
  }
  if (segments.front() != 0 || segments.back() != h.num_transactions) {
    return Corrupt("segment boundaries do not span the transactions");
  }
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i] >= segments[i + 1]) {
      return Corrupt("segment boundaries are not strictly increasing");
    }
  }
  for (const uint32_t parent : parents) {
    if (parent != kInvalidItem && parent >= h.taxonomy_id_space) {
      return Corrupt("taxonomy parent id out of range");
    }
  }
  for (const uint32_t root : roots) {
    if (root >= h.taxonomy_id_space) {
      return Corrupt("taxonomy root id out of range");
    }
  }
  reader.segments_ = segments;

  // --- The transaction columns. ---
  // The payload passes run sharded: on the caller's pool, on a
  // transient one when a column is larger than one decode chunk, and
  // inline otherwise.
  std::optional<ThreadPool> transient_pool;
  ThreadPool* pool = options.pool;
  if (pool == nullptr &&
      std::max(ColumnBytes(offsets_blocks), ColumnBytes(items_blocks)) >
          kMinChunkBytes) {
    pool = &transient_pool.emplace(0);
  }
  // The catalog section is parsed up front so the check pass can count
  // what it must match; its verdict is reported in file order, after
  // the columns and the taxonomy.
  Result<SegmentCatalog> catalog =
      ParseCatalog(h, segments, base, section(SectionId::kSegCatalog));
  SegmentCatalog counted;
  std::vector<uint32_t> item_freq;
  FLIPPER_RETURN_IF_ERROR(reader.DecodeColumns(
      base, offsets_blocks, items_blocks, pool,
      options.validate && catalog.ok() ? &*catalog : nullptr, &counted,
      &item_freq));

  // --- Reconstruct the taxonomy (canonical: children end up sorted,
  // independent of original edge declaration order). ---
  if (!roots.empty()) {
    TaxonomyBuilder builder;
    for (const uint32_t root : roots) builder.AddRoot(root);
    for (uint32_t id = 0; id < parents.size(); ++id) {
      if (parents[id] != kInvalidItem) {
        Status added = builder.AddEdge(parents[id], id);
        if (!added.ok()) {
          return Corrupt("taxonomy rebuild failed: " + added.message());
        }
      }
    }
    auto built = builder.Build();
    if (!built.ok()) {
      return Corrupt("taxonomy rebuild failed: " +
                     built.status().message());
    }
    reader.taxonomy_ = std::move(built).value();
  } else if (h.taxonomy_id_space != 0) {
    return Corrupt("taxonomy has nodes but no roots");
  }

  // --- Borrowed views over the mapping / decode buffers. ---
  reader.dict_ = ItemDictionary::FromBorrowed(name_offsets, blob);
  reader.db_ = TransactionDb::FromBorrowed(
      reader.decoded_offsets_, reader.decoded_items_, h.alphabet_size,
      h.max_width);

  // --- The segment catalog (checked against the figures the decode
  // counted, then attached to the database for scan skipping). ---
  if (!catalog.ok()) return catalog.status();
  if (options.validate) {
    FLIPPER_RETURN_IF_ERROR(CheckCatalog(*catalog, counted, item_freq));
  }
  reader.catalog_ =
      std::make_shared<const SegmentCatalog>(std::move(catalog).value());
  reader.db_.AttachSegmentCatalog(reader.catalog_);
  return reader;
}

Status StoreReader::VerifyChecksums() const {
  const std::byte* base = file_.data();
  for (const SectionEntry& e : sections_) {
    if (Fnv1a64(base + e.offset, static_cast<size_t>(e.size)) !=
        e.checksum) {
      return Corrupt(std::string(SectionIdName(SectionId(e.id))) +
                     " section checksum mismatch");
    }
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace flipper
