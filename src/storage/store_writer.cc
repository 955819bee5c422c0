#include "storage/store_writer.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <limits>

#include "storage/store_reader.h"
#include "storage/varint.h"

namespace flipper {
namespace storage {
namespace {

/// Fresh stores are staged here and renamed into place on commit.
std::string TempPathFor(const std::string& path) { return path + ".tmp"; }

}  // namespace

Result<StoreWriter> StoreWriter::Create(const std::string& path,
                                        const Options& options,
                                        FileSystem* fs) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::Internal(
        "FlipperStore requires a little-endian host (fixed LE format)");
  }
  if (options.segment_txns == 0) {
    return Status::InvalidArgument("segment_txns must be positive");
  }
  if (options.catalog_bitset_words == 0 ||
      options.catalog_bitset_words > kMaxCatalogBitsetWords) {
    return Status::InvalidArgument(
        "catalog_bitset_words must be in [1, " +
        std::to_string(kMaxCatalogBitsetWords) + "]");
  }
  StoreWriter writer;
  writer.options_ = options;
  writer.fs_ = ResolveFileSystem(fs);
  writer.final_path_ = path;
  writer.write_path_ = TempPathFor(path);
  {
    auto opened = writer.fs_->OpenWritable(writer.write_path_,
                                           /*truncate=*/true);
    if (!opened.ok()) return opened.status();
    writer.file_ = std::move(opened).value();
  }
  writer.cur_seg_bits_.assign(options.catalog_bitset_words, 0);
  // Placeholder header + section table; Finish() writes the real ones
  // in place once every section offset is known.
  const std::vector<char> zeros(
      sizeof(FileHeader) + kMinSectionCount * sizeof(SectionEntry), 0);
  Status placeholder =
      writer.WriteBytes(zeros.data(), zeros.size(), nullptr);
  if (!placeholder.ok()) {
    writer.Abandon();
    return placeholder;
  }
  writer.items_start_ = writer.file_pos_;
  return writer;
}

Result<StoreWriter> StoreWriter::OpenAppend(const std::string& path,
                                            const AppendOptions& options,
                                            FileSystem* fs) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::Internal(
        "FlipperStore requires a little-endian host (fixed LE format)");
  }
  StoreWriter writer;
  writer.fs_ = ResolveFileSystem(fs);
  writer.final_path_ = path;
  writer.write_path_ = path;
  writer.append_mode_ = true;
  {
    // Appending extends a *committed* store, so the base must open
    // under full validation; a torn tail from an earlier crash must be
    // repaired away first.
    auto base = StoreReader::Open(path);
    if (!base.ok()) {
      std::string msg =
          "cannot append to " + path + ": " + base.status().message();
      if (base.status().code() == StatusCode::kCorruptedData) {
        msg += " — run `flipper_cli repair " + path +
               "` to restore the last committed state";
      }
      return Status(base.status().code(), std::move(msg));
    }
    const StoreReader& reader = *base;
    const FileHeader& h = reader.header();
    if (AlignUp(h.file_size) != h.file_size) {
      return Status::Internal(
          "committed store size is not section-aligned: " + path);
    }
    const SegmentCatalog* catalog = reader.catalog();
    // The bitset geometry is frozen at creation: the base segments'
    // bitsets are carried over verbatim and their hash depends on the
    // word count. The tracked set, in contrast, is recomputed over
    // the whole store at every commit.
    writer.options_.catalog_bitset_words = catalog->bitset_words();
    writer.options_.catalog_tracked_items = options.catalog_tracked_items;
    uint32_t segment_txns = options.segment_txns;
    if (segment_txns == 0) {
      // Infer the base store's segment size from its widest segment
      // (all segments but the last are full-size).
      uint64_t widest = 0;
      const auto segs = reader.segments();
      for (size_t i = 0; i + 1 < segs.size(); ++i) {
        widest = std::max(widest, segs[i + 1] - segs[i]);
      }
      segment_txns =
          widest == 0
              ? Options().segment_txns
              : static_cast<uint32_t>(std::min<uint64_t>(
                    widest, std::numeric_limits<uint32_t>::max()));
    }
    writer.options_.segment_txns = segment_txns;

    const TransactionDb& db = reader.db();
    writer.offsets_.reserve(static_cast<size_t>(db.size()) + 1);
    for (TxnId t = 0; t < db.size(); ++t) {
      const auto txn = db.Get(t);
      writer.offsets_.push_back(writer.offsets_.back() + txn.size());
      for (const ItemId item : txn) {
        if (item >= writer.item_freq_.size()) {
          writer.item_freq_.resize(item + 1, 0);
        }
        ++writer.item_freq_[item];
      }
    }
    writer.segments_.assign(reader.segments().begin(),
                            reader.segments().end());
    writer.alphabet_size_ = h.alphabet_size;
    writer.max_width_ = h.max_width;
    writer.base_txns_ = h.num_transactions;
    writer.base_file_size_ = h.file_size;

    // Existing segments are immutable: their catalog records are
    // reused as-is (this session opens a new segment).
    for (size_t seg = 0; seg < catalog->num_segments(); ++seg) {
      writer.seg_min_.push_back(catalog->min_item(seg));
      writer.seg_max_.push_back(catalog->max_item(seg));
      const auto bits = catalog->segment_bits(seg);
      writer.seg_bits_.insert(writer.seg_bits_.end(), bits.begin(),
                              bits.end());
    }
    writer.cur_seg_bits_.assign(writer.options_.catalog_bitset_words, 0);

    // The committed column blocks stay where they are; the new table
    // will list them (in order) ahead of this session's blocks.
    for (const SectionEntry& e : reader.sections()) {
      if (e.id == static_cast<uint32_t>(SectionId::kTxnOffsets)) {
        writer.base_offsets_blocks_.push_back(e);
      } else if (e.id == static_cast<uint32_t>(SectionId::kTxnItems)) {
        writer.base_items_blocks_.push_back(e);
      }
    }

    // Snapshot the dictionary and taxonomy so Finish() can enforce
    // that the session only extended them (committed ids must keep
    // their meaning).
    writer.base_names_.reserve(h.dict_size);
    for (ItemId id = 0; id < h.dict_size; ++id) {
      writer.base_names_.emplace_back(reader.dict().Name(id));
    }
    writer.base_parents_.resize(h.taxonomy_id_space);
    for (size_t id = 0; id < writer.base_parents_.size(); ++id) {
      writer.base_parents_[id] =
          reader.taxonomy().ParentOf(static_cast<ItemId>(id));
    }
    const auto& roots = reader.taxonomy().Level1();
    writer.base_roots_.assign(roots.begin(), roots.end());
  }  // release the base mapping before opening the file for writing

  auto opened = writer.fs_->OpenWritable(path, /*truncate=*/false);
  if (!opened.ok()) return opened.status();
  writer.file_ = std::move(opened).value();
  writer.file_pos_ = writer.base_file_size_;
  writer.items_start_ = writer.base_file_size_;
  return writer;
}

StoreWriter::~StoreWriter() { Abandon(); }

void StoreWriter::Abandon() {
  if (file_ == nullptr) return;
  (void)file_->Close();
  file_.reset();
  // Best effort; under a real crash none of this runs, which is
  // exactly what repair handles.
  if (append_mode_) {
    (void)fs_->Truncate(final_path_, base_file_size_);
  } else {
    (void)fs_->Remove(write_path_);
  }
}

Status StoreWriter::WriteBytes(const void* data, size_t size,
                               uint64_t* checksum) {
  if (size == 0) return Status::OK();
  FLIPPER_RETURN_IF_ERROR(file_->Append(data, size));
  file_pos_ += size;
  if (checksum != nullptr) *checksum = Fnv1a64(data, size, *checksum);
  return Status::OK();
}

Status StoreWriter::Pad() {
  static constexpr char kZeros[kSectionAlignment] = {};
  const uint64_t target = AlignUp(file_pos_);
  if (target > file_pos_) {
    return WriteBytes(kZeros, target - file_pos_, nullptr);
  }
  return Status::OK();
}

Status StoreWriter::WriteSection(SectionId id, const void* data,
                                 size_t size,
                                 std::vector<SectionEntry>* table) {
  SectionEntry entry;
  entry.id = static_cast<uint32_t>(id);
  entry.offset = file_pos_;
  entry.size = size;
  entry.checksum = Fnv1a64(data, size);
  FLIPPER_RETURN_IF_ERROR(WriteBytes(data, size, nullptr));
  FLIPPER_RETURN_IF_ERROR(Pad());
  table->push_back(entry);
  return Status::OK();
}

void StoreWriter::FlushCatalogSegment() {
  seg_min_.push_back(cur_seg_min_);
  seg_max_.push_back(cur_seg_max_);
  seg_bits_.insert(seg_bits_.end(), cur_seg_bits_.begin(),
                   cur_seg_bits_.end());
  cur_seg_min_ = kInvalidItem;
  cur_seg_max_ = 0;
  std::fill(cur_seg_bits_.begin(), cur_seg_bits_.end(), 0);
}

Status StoreWriter::Append(std::span<const ItemId> items) {
  if (finished_) {
    return Status::FailedPrecondition("Append after Finish");
  }
  if (file_ == nullptr) {
    return Status::FailedPrecondition(
        "store writer is no longer usable (a previous operation failed)");
  }
  Status status = AppendImpl(items);
  if (!status.ok()) Abandon();
  return status;
}

Status StoreWriter::AppendImpl(std::span<const ItemId> items) {
  scratch_.assign(items.begin(), items.end());
  std::sort(scratch_.begin(), scratch_.end());
  scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                 scratch_.end());
  // First item raw, then the strictly positive gaps — plus the catalog
  // accumulators for the open segment.
  encode_scratch_.clear();
  const uint32_t num_bits = options_.catalog_bitset_words * 64;
  ItemId prev = 0;
  for (size_t i = 0; i < scratch_.size(); ++i) {
    const ItemId item = scratch_[i];
    PutVarint(i == 0 ? item : item - prev, &encode_scratch_);
    prev = item;
    cur_seg_min_ = std::min(cur_seg_min_, item);
    cur_seg_max_ = std::max(cur_seg_max_, item);
    const uint32_t bit = SegmentCatalog::HashBit(item, num_bits);
    cur_seg_bits_[bit / 64] |= uint64_t{1} << (bit % 64);
    if (item >= item_freq_.size()) item_freq_.resize(item + 1, 0);
    ++item_freq_[item];
  }
  FLIPPER_RETURN_IF_ERROR(WriteBytes(
      encode_scratch_.data(), encode_scratch_.size(), &items_checksum_));
  offsets_.push_back(offsets_.back() + scratch_.size());
  max_width_ = std::max(max_width_, static_cast<uint32_t>(scratch_.size()));
  if (!scratch_.empty()) {
    alphabet_size_ = std::max(alphabet_size_, scratch_.back() + 1);
  }
  if (++txns_in_open_segment_ == options_.segment_txns) {
    segments_.push_back(num_transactions());
    FlushCatalogSegment();
    txns_in_open_segment_ = 0;
  }
  return Status::OK();
}

Status StoreWriter::CountTrackedSupports(
    std::span<const Extent> extents, std::span<const ItemId> tracked_ids,
    std::vector<uint32_t>* supports) const {
  const size_t tracked = tracked_ids.size();
  supports->assign((segments_.size() - 1) * tracked, 0);
  if (tracked == 0 || num_transactions() == 0) return Status::OK();

  std::vector<uint32_t> slot_of(alphabet_size_, 0);
  for (size_t i = 0; i < tracked; ++i) {
    slot_of[tracked_ids[i]] = static_cast<uint32_t>(i) + 1;
  }

  std::ifstream in(write_path_, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot reopen for reading: " + write_path_);
  }

  uint64_t remaining = 0;
  for (const Extent& e : extents) remaining += e.size;

  // Chunked decode over the extent chain (one extent per session's
  // items block, in transaction order): refill keeps at least one
  // maximal varint of slack so a value never straddles the buffer
  // edge unseen. Extents end on transaction boundaries, so a varint
  // never straddles extents either.
  std::vector<uint8_t> buffer(1u << 20);
  size_t buf_len = 0;
  size_t buf_pos = 0;
  size_t ext_idx = 0;
  uint64_t ext_left = 0;  // unread bytes of the extent the stream is in
  const auto refill = [&]() -> Status {
    std::memmove(buffer.data(), buffer.data() + buf_pos,
                 buf_len - buf_pos);
    buf_len -= buf_pos;
    buf_pos = 0;
    while (buf_len < buffer.size() && remaining > 0) {
      if (ext_left == 0) {
        while (ext_idx < extents.size() && extents[ext_idx].size == 0) {
          ++ext_idx;
        }
        if (ext_idx >= extents.size()) break;
        in.seekg(static_cast<std::streamoff>(extents[ext_idx].offset));
        if (!in) {
          return Status::IoError("seek failed: " + write_path_);
        }
        ext_left = extents[ext_idx].size;
        ++ext_idx;
      }
      const size_t want = static_cast<size_t>(std::min<uint64_t>(
          ext_left, buffer.size() - buf_len));
      in.read(reinterpret_cast<char*>(buffer.data() + buf_len),
              static_cast<std::streamsize>(want));
      if (static_cast<size_t>(in.gcount()) != want) {
        return Status::IoError("re-read of items column failed: " +
                               write_path_);
      }
      buf_len += want;
      ext_left -= want;
      remaining -= want;
    }
    return Status::OK();
  };

  size_t seg = 0;
  uint32_t* seg_supports = supports->data();
  for (uint64_t t = 0; t < num_transactions(); ++t) {
    while (seg + 1 < segments_.size() - 1 && t >= segments_[seg + 1]) {
      ++seg;
      seg_supports = supports->data() + seg * tracked;
    }
    const uint64_t width = offsets_[t + 1] - offsets_[t];
    ItemId item = 0;
    for (uint64_t i = 0; i < width; ++i) {
      if (buf_len - buf_pos < kMaxVarintBytes &&
          (remaining > 0 || ext_left > 0)) {
        FLIPPER_RETURN_IF_ERROR(refill());
      }
      const uint8_t* pos = buffer.data() + buf_pos;
      uint64_t delta = 0;
      if (!GetVarint(&pos, buffer.data() + buf_len, &delta)) {
        return Status::Internal(
            "items column re-read desynchronized at txn " +
            std::to_string(t));
      }
      buf_pos = static_cast<size_t>(pos - buffer.data());
      item = i == 0 ? static_cast<ItemId>(delta)
                    : item + static_cast<ItemId>(delta);
      if (item < slot_of.size() && slot_of[item] != 0) {
        ++seg_supports[slot_of[item] - 1];
      }
    }
  }
  return Status::OK();
}

Status StoreWriter::Finish(const ItemDictionary& dict,
                           const Taxonomy& taxonomy) {
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice");
  }
  if (file_ == nullptr) {
    return Status::FailedPrecondition(
        "store writer is no longer usable (a previous operation failed)");
  }
  Status status = FinishImpl(dict, taxonomy);
  if (!status.ok()) {
    if (append_mode_ && commit_trailer_durable_) {
      // The commit trailer is already fsynced: the session IS durable,
      // only the front-header rewrite (or the final sync/close) failed.
      // Rolling back now would truncate committed data — and, with the
      // front header possibly half-rewritten, leave nothing valid at
      // all. Keep the file; repair redoes the front header from the
      // trailer.
      if (file_ != nullptr) {
        (void)file_->Close();
        file_.reset();
      }
      return Status(
          status.code(),
          status.message() +
              " (the append session itself is committed — run "
              "`flipper_cli repair --apply` to finalize the front "
              "header)");
    }
    if (file_ != nullptr) {
      Abandon();
    } else if (append_mode_) {
      // Failed after Close (e.g. a metadata operation): roll the file
      // back to the base store.
      (void)fs_->Truncate(final_path_, base_file_size_);
    } else {
      (void)fs_->Remove(write_path_);
    }
    return status;
  }
  finished_ = true;
  return Status::OK();
}

Status StoreWriter::FinishImpl(const ItemDictionary& dict,
                               const Taxonomy& taxonomy) {
  if (alphabet_size_ > dict.size()) {
    return Status::InvalidArgument(
        "dictionary has " + std::to_string(dict.size()) +
        " names but transactions reference item " +
        std::to_string(alphabet_size_ - 1));
  }
  if (taxonomy.id_space() > dict.size()) {
    return Status::InvalidArgument(
        "dictionary has " + std::to_string(dict.size()) +
        " names but the taxonomy id space is " +
        std::to_string(taxonomy.id_space()));
  }
  if (append_mode_) {
    // Committed ids must keep their meaning: the session's dictionary
    // and taxonomy may only extend what is already on disk.
    if (dict.size() < base_names_.size()) {
      return Status::InvalidArgument(
          "append sessions may only extend the dictionary: it shrank "
          "from " + std::to_string(base_names_.size()) + " to " +
          std::to_string(dict.size()) + " names: " + final_path_);
    }
    for (ItemId id = 0; id < base_names_.size(); ++id) {
      if (dict.Name(id) != base_names_[id]) {
        return Status::InvalidArgument(
            "append sessions may only extend the dictionary: the name "
            "of id " + std::to_string(id) + " changed from \"" +
            base_names_[id] + "\" to \"" + std::string(dict.Name(id)) +
            "\": " + final_path_);
      }
    }
    if (taxonomy.id_space() < base_parents_.size()) {
      return Status::InvalidArgument(
          "append sessions may only extend the taxonomy: its id space "
          "shrank from " + std::to_string(base_parents_.size()) +
          " to " + std::to_string(taxonomy.id_space()) + ": " +
          final_path_);
    }
    for (size_t id = 0; id < base_parents_.size(); ++id) {
      if (taxonomy.ParentOf(static_cast<ItemId>(id)) !=
          base_parents_[id]) {
        return Status::InvalidArgument(
            "append sessions may only extend the taxonomy: the parent "
            "of id " + std::to_string(id) + " changed: " + final_path_);
      }
    }
    const auto& roots = taxonomy.Level1();
    if (roots.size() < base_roots_.size() ||
        !std::equal(base_roots_.begin(), base_roots_.end(),
                    roots.begin())) {
      return Status::InvalidArgument(
          "append sessions may only extend the taxonomy: the committed "
          "roots changed: " + final_path_);
    }
  }

  // This session's items block has been streaming since
  // Create/OpenAppend.
  SectionEntry items_entry;
  items_entry.id = static_cast<uint32_t>(SectionId::kTxnItems);
  items_entry.offset = items_start_;
  items_entry.size = file_pos_ - items_start_;
  items_entry.checksum = items_checksum_;
  const uint64_t items_end = file_pos_;
  FLIPPER_RETURN_IF_ERROR(Pad());

  std::vector<SectionEntry> written;  // sections written below, in order
  encode_scratch_.clear();
  for (size_t t = base_txns_; t + 1 < offsets_.size(); ++t) {
    PutVarint(offsets_[t + 1] - offsets_[t], &encode_scratch_);
  }
  FLIPPER_RETURN_IF_ERROR(WriteSection(
      SectionId::kTxnOffsets, encode_scratch_.data(),
      encode_scratch_.size(), &written));
  const SectionEntry offsets_entry = written.back();
  written.pop_back();

  if (segments_.back() != num_transactions()) {
    segments_.push_back(num_transactions());
    FlushCatalogSegment();
  }
  FLIPPER_RETURN_IF_ERROR(WriteSection(
      SectionId::kSegments, segments_.data(),
      segments_.size() * sizeof(uint64_t), &written));

  std::vector<uint64_t> name_offsets;
  name_offsets.reserve(dict.size() + 1);
  name_offsets.push_back(0);
  std::string blob;
  for (ItemId id = 0; id < dict.size(); ++id) {
    blob += dict.Name(id);
    name_offsets.push_back(blob.size());
  }
  FLIPPER_RETURN_IF_ERROR(WriteSection(
      SectionId::kDictOffsets, name_offsets.data(),
      name_offsets.size() * sizeof(uint64_t), &written));
  FLIPPER_RETURN_IF_ERROR(WriteSection(
      SectionId::kDictBlob, blob.data(), blob.size(), &written));

  std::vector<ItemId> parents(taxonomy.id_space());
  for (size_t id = 0; id < parents.size(); ++id) {
    parents[id] = taxonomy.ParentOf(static_cast<ItemId>(id));
  }
  FLIPPER_RETURN_IF_ERROR(WriteSection(
      SectionId::kTaxParents, parents.data(),
      parents.size() * sizeof(ItemId), &written));
  const std::vector<ItemId>& roots = taxonomy.Level1();
  FLIPPER_RETURN_IF_ERROR(WriteSection(
      SectionId::kTaxRoots, roots.data(), roots.size() * sizeof(ItemId),
      &written));

  // Tracked set: the same selection the reader's catalog check runs
  // (SegmentCatalog::TopKByFrequency), so the two can never disagree.
  const std::vector<ItemId> tracked_vec =
      SegmentCatalog::TopKByFrequency(item_freq_,
                                      options_.catalog_tracked_items);
  const size_t tracked = tracked_vec.size();
  const std::span<const ItemId> tracked_ids(tracked_vec.data(), tracked);

  // The items column must be visible to the counting re-read (a
  // separate read handle on the same file).
  FLIPPER_RETURN_IF_ERROR(file_->Flush());
  std::vector<Extent> extents;
  extents.reserve(base_items_blocks_.size() + 1);
  for (const SectionEntry& e : base_items_blocks_) {
    extents.push_back(Extent{e.offset, e.size});
  }
  extents.push_back(Extent{items_start_, items_end - items_start_});
  std::vector<uint32_t> tracked_supports;
  FLIPPER_RETURN_IF_ERROR(CountTrackedSupports(
      extents, tracked_ids, &tracked_supports));

  const size_t num_segments = segments_.size() - 1;
  const uint32_t words = options_.catalog_bitset_words;
  std::vector<uint8_t> payload;
  payload.reserve(sizeof(SegCatalogHeader) +
                  tracked * sizeof(uint32_t) +
                  num_segments * SegCatalogRecordBytes(tracked, words));
  const auto put_u32 = [&payload](uint32_t v) {
    const auto* p = reinterpret_cast<const uint8_t*>(&v);
    payload.insert(payload.end(), p, p + sizeof(v));
  };
  const auto put_u64 = [&payload](uint64_t v) {
    const auto* p = reinterpret_cast<const uint8_t*>(&v);
    payload.insert(payload.end(), p, p + sizeof(v));
  };
  put_u32(static_cast<uint32_t>(tracked));
  put_u32(words);
  for (ItemId id : tracked_ids) put_u32(id);
  for (size_t seg = 0; seg < num_segments; ++seg) {
    put_u32(seg_min_[seg]);
    put_u32(seg_max_[seg]);
    for (uint32_t w = 0; w < words; ++w) {
      put_u64(seg_bits_[seg * words + w]);
    }
    for (size_t i = 0; i < tracked; ++i) {
      put_u32(tracked_supports[seg * tracked + i]);
    }
  }
  FLIPPER_RETURN_IF_ERROR(WriteSection(
      SectionId::kSegCatalog, payload.data(), payload.size(), &written));

  // Assemble the section table. Fresh files keep the historical order
  // (items first); appended files list the committed column blocks
  // ahead of this session's, since readers concatenate blocks in
  // table order.
  std::vector<SectionEntry> table;
  table.reserve(base_offsets_blocks_.size() + base_items_blocks_.size() +
                2 + written.size());
  if (!append_mode_) {
    table.push_back(items_entry);
    table.push_back(offsets_entry);
  } else {
    table.insert(table.end(), base_offsets_blocks_.begin(),
                 base_offsets_blocks_.end());
    table.push_back(offsets_entry);
    table.insert(table.end(), base_items_blocks_.begin(),
                 base_items_blocks_.end());
    table.push_back(items_entry);
  }
  table.insert(table.end(), written.begin(), written.end());
  const uint64_t table_bytes = table.size() * sizeof(SectionEntry);

  FileHeader header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersion;
  header.section_count = static_cast<uint32_t>(table.size());
  header.num_transactions = num_transactions();
  header.num_items = num_items();
  header.num_segments = segments_.size() - 1;
  header.alphabet_size = alphabet_size_;
  header.max_width = max_width_;
  header.dict_size = dict.size();
  header.taxonomy_id_space = static_cast<uint32_t>(taxonomy.id_space());
  header.taxonomy_num_roots = static_cast<uint32_t>(roots.size());
  header.table_checksum = Fnv1a64(table.data(), table_bytes);

  if (!append_mode_) {
    // Fresh store: table right after the header (the placeholder
    // reserved exactly this much room), commit by rename.
    header.table_offset = 0;
    header.file_size = file_pos_;
    header.header_checksum = HeaderChecksum(header);
    std::vector<uint8_t> front(sizeof(FileHeader) + table_bytes);
    std::memcpy(front.data(), &header, sizeof(header));
    std::memcpy(front.data() + sizeof(header), table.data(), table_bytes);
    FLIPPER_RETURN_IF_ERROR(file_->WriteAt(0, front.data(), front.size()));
    FLIPPER_RETURN_IF_ERROR(file_->Sync());
    {
      Status closed = file_->Close();
      file_.reset();
      FLIPPER_RETURN_IF_ERROR(closed);
    }
    FLIPPER_RETURN_IF_ERROR(fs_->Rename(write_path_, final_path_));
    return fs_->SyncDir(final_path_);
  }

  // Append session: the commit trailer. Order matters — data must be
  // durable before the trailer (the commit record), and the trailer
  // before the front-header rewrite; see format.h.
  FLIPPER_RETURN_IF_ERROR(file_->Sync());
  header.table_offset = file_pos_;
  header.file_size = file_pos_ + table_bytes + sizeof(FileHeader);
  header.header_checksum = HeaderChecksum(header);
  FLIPPER_RETURN_IF_ERROR(WriteBytes(table.data(), table_bytes, nullptr));
  FLIPPER_RETURN_IF_ERROR(WriteBytes(&header, sizeof(header), nullptr));
  // The commit point: after this fsync the session is durable even if
  // the front header below never lands (repair redoes it from the
  // trailer).
  FLIPPER_RETURN_IF_ERROR(file_->Sync());
  commit_trailer_durable_ = true;
  FLIPPER_RETURN_IF_ERROR(file_->WriteAt(0, &header, sizeof(header)));
  FLIPPER_RETURN_IF_ERROR(file_->Sync());
  Status closed = file_->Close();
  file_.reset();
  return closed;
}

Status WriteStoreFile(const std::string& path, const TransactionDb& db,
                      const ItemDictionary& dict, const Taxonomy& taxonomy,
                      const StoreWriter::Options& options, FileSystem* fs) {
  FLIPPER_ASSIGN_OR_RETURN(StoreWriter writer,
                           StoreWriter::Create(path, options, fs));
  for (TxnId t = 0; t < db.size(); ++t) {
    FLIPPER_RETURN_IF_ERROR(writer.Append(db.Get(t)));
  }
  return writer.Finish(dict, taxonomy);
}

}  // namespace storage
}  // namespace flipper
