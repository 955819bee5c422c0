// FlipperStore tests: byte-level round trips (basket -> .fdb -> mine
// is bit-identical to mining the text inputs, serial and parallel),
// the streaming writer against the bulk path, borrowed-view semantics,
// and a corruption battery — every malformed file must come back as a
// Status error, never a crash.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/flipper_miner.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/pattern_io.h"
#include "data/db_io.h"
#include "storage/format.h"
#include "storage/store_reader.h"
#include "storage/store_writer.h"
#include "storage/varint.h"
#include "taxonomy/taxonomy_io.h"
#include "test_util.h"

namespace flipper {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f) << path;
  std::ostringstream oss;
  oss << f.rdbuf();
  return oss.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f) << path;
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

storage::FileHeader* HeaderOf(std::string* bytes) {
  return reinterpret_cast<storage::FileHeader*>(bytes->data());
}

/// The section table (appended stores move it past the header).
storage::SectionEntry* TableOf(std::string* bytes) {
  const uint64_t offset = HeaderOf(bytes)->table_offset;
  return reinterpret_cast<storage::SectionEntry*>(
      bytes->data() + (offset == 0 ? sizeof(storage::FileHeader) : offset));
}

storage::SectionEntry* SectionOf(std::string* bytes,
                                 storage::SectionId id) {
  storage::SectionEntry* table = TableOf(bytes);
  for (uint32_t i = 0; i < HeaderOf(bytes)->section_count; ++i) {
    if (table[i].id == static_cast<uint32_t>(id)) return &table[i];
  }
  return nullptr;
}

/// Recomputes section, table and header checksums so a deliberately
/// patched payload exercises the deep validation scan rather than the
/// checksum gates.
void FixChecksums(std::string* bytes) {
  auto* header = HeaderOf(bytes);
  storage::SectionEntry* table = TableOf(bytes);
  for (uint32_t i = 0; i < header->section_count; ++i) {
    // A section the test pointed outside the file cannot be hashed;
    // the reader rejects it on bounds before any checksum check.
    if (table[i].offset > bytes->size() ||
        table[i].size > bytes->size() - table[i].offset) {
      continue;
    }
    table[i].checksum = storage::Fnv1a64(
        bytes->data() + table[i].offset,
        static_cast<size_t>(table[i].size));
  }
  header->table_checksum = storage::Fnv1a64(
      table, header->section_count * sizeof(storage::SectionEntry));
  header->header_checksum = storage::HeaderChecksum(*header);
}

/// Mines and serializes to the CSV export (the CLI's machine format);
/// byte equality of two of these is the round-trip criterion.
std::string MineToCsv(const TransactionDb& db, const Taxonomy& taxonomy,
                      const ItemDictionary& dict, int threads) {
  MiningConfig config;
  config.gamma = 0.45;
  config.epsilon = 0.2;
  config.min_support = {0.003, 0.002, 0.002};
  config.num_threads = threads;
  auto result = FlipperMiner::Run(db, taxonomy, config);
  EXPECT_TRUE(result.ok()) << result.status();
  std::ostringstream oss;
  EXPECT_TRUE(WritePatternsCsv(result->patterns, &dict, oss).ok());
  return oss.str();
}

/// Text files + .fdb conversion of one randomized dataset, shared by
/// the round-trip tests.
struct ConvertedDataset {
  std::string basket_path;
  std::string taxonomy_path;
  std::string store_path;
  ItemDictionary dict;
  Taxonomy taxonomy;
  TransactionDb db;
};

ConvertedDataset MakeConverted(const std::string& tag) {
  testutil::Dataset data = testutil::RandomDataset(1234, 5, 3, 3, 600, 9);
  ConvertedDataset out;
  out.basket_path = TempPath(tag + ".basket");
  out.taxonomy_path = TempPath(tag + ".taxonomy");
  out.store_path = TempPath(tag + ".fdb");
  EXPECT_TRUE(
      WriteTaxonomyFile(data.taxonomy, data.dict, out.taxonomy_path).ok());
  EXPECT_TRUE(WriteBasketFile(data.db, data.dict, out.basket_path).ok());
  // Reload through the text readers (exactly what the CLI does) so the
  // id assignment matches a fresh `flipper_cli mine <basket> <tax>`.
  auto taxonomy = ReadTaxonomyFile(out.taxonomy_path, &out.dict);
  EXPECT_TRUE(taxonomy.ok()) << taxonomy.status();
  out.taxonomy = std::move(taxonomy).value();
  auto db = ReadBasketFile(out.basket_path, &out.dict);
  EXPECT_TRUE(db.ok()) << db.status();
  out.db = std::move(db).value();
  EXPECT_TRUE(storage::WriteStoreFile(out.store_path, out.db, out.dict,
                                      out.taxonomy)
                  .ok());
  return out;
}

TEST(StorageRoundTrip, MiningIsBitIdenticalAtAnyThreadCount) {
  ConvertedDataset data = MakeConverted("roundtrip");
  auto reader = storage::StoreReader::Open(data.store_path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->db().size(), data.db.size());
  EXPECT_TRUE(reader->db().borrowed());
  EXPECT_TRUE(reader->dict().borrowed());

  for (int threads : {1, 4}) {
    const std::string from_text =
        MineToCsv(data.db, data.taxonomy, data.dict, threads);
    const std::string from_store = MineToCsv(
        reader->db(), reader->taxonomy(), reader->dict(), threads);
    EXPECT_FALSE(from_text.empty());
    EXPECT_EQ(from_text, from_store) << "threads=" << threads;
  }
}

TEST(StorageRoundTrip, BasketReserializationIsByteIdentical) {
  ConvertedDataset data = MakeConverted("reserialize");
  auto reader = storage::StoreReader::Open(data.store_path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const std::string rewritten = TempPath("reserialize2.basket");
  ASSERT_TRUE(
      WriteBasketFile(reader->db(), reader->dict(), rewritten).ok());
  EXPECT_EQ(ReadFileBytes(data.basket_path), ReadFileBytes(rewritten));
}

TEST(StorageRoundTrip, HeapFallbackMatchesMmap) {
  ConvertedDataset data = MakeConverted("heap");
  storage::OpenOptions heap_options;
  heap_options.force_heap = true;
  auto mapped = storage::StoreReader::Open(data.store_path);
  auto heap = storage::StoreReader::Open(data.store_path, heap_options);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  ASSERT_TRUE(heap.ok()) << heap.status();
  EXPECT_FALSE(heap->mapped());
  EXPECT_EQ(
      MineToCsv(mapped->db(), mapped->taxonomy(), mapped->dict(), 1),
      MineToCsv(heap->db(), heap->taxonomy(), heap->dict(), 1));
}

TEST(StorageWriter, StreamingAppendMatchesBulkWrite) {
  testutil::Dataset data = testutil::RandomDataset(9, 3, 2, 3, 120, 5);
  const std::string bulk_path = TempPath("bulk.fdb");
  const std::string stream_path = TempPath("stream.fdb");
  ASSERT_TRUE(storage::WriteStoreFile(bulk_path, data.db, data.dict,
                                      data.taxonomy)
                  .ok());
  auto writer = storage::StoreWriter::Create(stream_path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (TxnId t = 0; t < data.db.size(); ++t) {
    ASSERT_TRUE(writer->Append(data.db.Get(t)).ok());
  }
  ASSERT_TRUE(writer->Finish(data.dict, data.taxonomy).ok());
  EXPECT_EQ(ReadFileBytes(bulk_path), ReadFileBytes(stream_path));
}

TEST(StorageWriter, SegmentBoundariesFollowTheConfiguredSize) {
  testutil::Dataset data = testutil::RandomDataset(5, 3, 2, 3, 100, 5);
  const std::string path = TempPath("segments.fdb");
  storage::StoreWriter::Options options;
  options.segment_txns = 32;
  ASSERT_TRUE(storage::WriteStoreFile(path, data.db, data.dict,
                                      data.taxonomy, options)
                  .ok());
  auto reader = storage::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const auto segments = reader->segments();
  ASSERT_EQ(segments.size(), 5u);  // 100 txns / 32 -> 0,32,64,96,100
  EXPECT_EQ(segments[0], 0u);
  EXPECT_EQ(segments[1], 32u);
  EXPECT_EQ(segments[3], 96u);
  EXPECT_EQ(segments[4], 100u);
}

TEST(StorageBorrowed, MutationMaterializesTheViews) {
  ConvertedDataset data = MakeConverted("borrowed");
  auto reader = storage::StoreReader::Open(data.store_path);
  ASSERT_TRUE(reader.ok()) << reader.status();

  TransactionDb copy = reader->db();  // still borrowed
  EXPECT_TRUE(copy.borrowed());
  const uint32_t before = copy.size();
  copy.Add({0, 1});
  EXPECT_FALSE(copy.borrowed());
  EXPECT_EQ(copy.size(), before + 1);
  for (TxnId t = 0; t < before; ++t) {
    const auto a = reader->db().Get(t);
    const auto b = copy.Get(t);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }

  ItemDictionary dict_copy = reader->dict();
  EXPECT_TRUE(dict_copy.borrowed());
  const std::string name0(dict_copy.Name(0));
  EXPECT_EQ(*dict_copy.Find(name0), 0u);  // linear-scan lookup
  const ItemId added = dict_copy.Intern("brand-new-item");
  EXPECT_FALSE(dict_copy.borrowed());
  EXPECT_EQ(added, reader->dict().size());
  EXPECT_EQ(dict_copy.Name(0), name0);
}

// --- Corruption battery ----------------------------------------------

std::string MakeToyStore(const std::string& tag) {
  testutil::Dataset data = testutil::PaperToyDataset();
  const std::string path = TempPath(tag + ".fdb");
  EXPECT_TRUE(storage::WriteStoreFile(path, data.db, data.dict,
                                      data.taxonomy)
                  .ok());
  return path;
}

TEST(StorageCorruption, TruncatedHeaderFails) {
  const std::string path = MakeToyStore("trunc_header");
  WriteFileBytes(path, ReadFileBytes(path).substr(0, 10));
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(reader.status().message().find("truncated header"),
            std::string::npos);
}

TEST(StorageCorruption, BadMagicFails) {
  const std::string path = MakeToyStore("magic");
  std::string bytes = ReadFileBytes(path);
  bytes[0] = 'X';
  WriteFileBytes(path, bytes);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(reader.status().message().find("magic"), std::string::npos);
}

TEST(StorageCorruption, UnsupportedVersionFails) {
  // Version 1 (raw fixed-width columns) is no longer read; its message
  // names the upgrade route. A future version is rejected the same way.
  for (const uint32_t version : {1u, 99u}) {
    const std::string path = MakeToyStore("version");
    std::string bytes = ReadFileBytes(path);
    HeaderOf(&bytes)->version = version;
    FixChecksums(&bytes);
    WriteFileBytes(path, bytes);
    auto reader = storage::StoreReader::Open(path);
    ASSERT_FALSE(reader.ok()) << "version " << version;
    EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(reader.status().message().find(
                  "unsupported store version " + std::to_string(version) +
                  " (this build reads version 2)"),
              std::string::npos)
        << reader.status();
    EXPECT_EQ(reader.status().message().find("convert --from-fdb") !=
                  std::string::npos,
              version == 1)
        << reader.status();
  }
}

TEST(StorageCorruption, HeaderBitFlipFailsTheChecksum) {
  const std::string path = MakeToyStore("header_flip");
  std::string bytes = ReadFileBytes(path);
  HeaderOf(&bytes)->num_transactions += 1;  // checksum left stale
  WriteFileBytes(path, bytes);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(reader.status().message().find("header checksum"),
            std::string::npos);
}

TEST(StorageCorruption, TruncatedFileFails) {
  const std::string path = MakeToyStore("trunc_file");
  const std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 16));
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(reader.status().message().find("size mismatch"),
            std::string::npos);
}

TEST(StorageCorruption, SectionBeyondEndOfFileFails) {
  const std::string path = MakeToyStore("section_bounds");
  std::string bytes = ReadFileBytes(path);
  SectionOf(&bytes, storage::SectionId::kTxnItems)->offset =
      storage::AlignUp(bytes.size() + 64);
  FixChecksums(&bytes);
  WriteFileBytes(path, bytes);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(reader.status().message().find("past end of file"),
            std::string::npos);
}

/// Overwrites the first varint of `id`'s column (txn 0's width or first
/// item, one byte in the toy store) with the one-byte varint `value`.
void PatchFirstVarint(std::string* bytes, storage::SectionId id,
                      uint64_t value) {
  const auto* column = SectionOf(bytes, id);
  ASSERT_NE(column, nullptr);
  ASSERT_LT(static_cast<uint8_t>((*bytes)[column->offset]), 0x80);
  ASSERT_LT(value, 0x80u);
  (*bytes)[column->offset] = static_cast<char>(value);
  FixChecksums(bytes);
}

TEST(StorageCorruption, OutOfRangeItemFails) {
  // txn 0's first item id (a raw varint, not a gap) at the alphabet
  // size: the smallest id out of range.
  const std::string path = MakeToyStore("bad_item");
  std::string bytes = ReadFileBytes(path);
  ASSERT_NO_FATAL_FAILURE(PatchFirstVarint(
      &bytes, storage::SectionId::kTxnItems, HeaderOf(&bytes)->alphabet_size));
  WriteFileBytes(path, bytes);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(reader.status().message().find("out of range"),
            std::string::npos);
}

TEST(StorageCorruption, NonMonotoneOffsetsFail) {
  // txn 0's width runs the CSR boundaries past num_items. Widths are
  // unsigned, so the boundaries cannot decrease; they fail to end at
  // num_items instead.
  const std::string path = MakeToyStore("bad_offsets");
  std::string bytes = ReadFileBytes(path);
  ASSERT_NO_FATAL_FAILURE(PatchFirstVarint(
      &bytes, storage::SectionId::kTxnOffsets,
      HeaderOf(&bytes)->num_items + 7));
  WriteFileBytes(path, bytes);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(reader.status().message().find("do not span the items"),
            std::string::npos)
      << reader.status();
}

/// Byte offset of the first per-segment record inside the catalog
/// payload (past the catalog header and the tracked-id table).
size_t CatalogRecordsOffset(std::string* bytes) {
  const auto* entry = SectionOf(bytes, storage::SectionId::kSegCatalog);
  EXPECT_NE(entry, nullptr);
  storage::SegCatalogHeader ch;
  std::memcpy(&ch, bytes->data() + entry->offset, sizeof(ch));
  return static_cast<size_t>(entry->offset) + sizeof(ch) +
         ch.tracked_count * sizeof(uint32_t);
}

/// Zeroes segment 0's catalog bitset: the structural checks still
/// pass, but a scan consulting it would wrongly skip the segment.
void ZeroFirstCatalogBitset(std::string* bytes) {
  const size_t record = CatalogRecordsOffset(bytes);
  storage::SegCatalogHeader ch;
  std::memcpy(&ch,
              bytes->data() +
                  SectionOf(bytes, storage::SectionId::kSegCatalog)->offset,
              sizeof(ch));
  std::memset(bytes->data() + record + 2 * sizeof(uint32_t), 0,
              ch.bitset_words * sizeof(uint64_t));
  FixChecksums(bytes);
}

TEST(StorageCorruption, TrustedOpenSkipsThePayloadScan) {
  // A lying catalog: validate=false trusts it, and the structural
  // gates and the always-checked column decode pass, so Open succeeds.
  // (This is the documented contract, not a bug: trusted mode is for
  // files this process just wrote.)
  const std::string path = MakeToyStore("trusted");
  std::string bytes = ReadFileBytes(path);
  ZeroFirstCatalogBitset(&bytes);
  WriteFileBytes(path, bytes);
  storage::OpenOptions trusting;
  trusting.validate = false;
  EXPECT_TRUE(storage::StoreReader::Open(path, trusting).ok());
  EXPECT_FALSE(storage::StoreReader::Open(path).ok());
}

TEST(StorageCorruption, VerifyChecksumsCatchesPayloadBitrot) {
  const std::string path = MakeToyStore("bitrot");
  std::string bytes = ReadFileBytes(path);
  // Flip a byte inside the name blob: no structural check looks at
  // name bytes, so Open succeeds and only the checksum sweep trips.
  const auto* blob = SectionOf(&bytes, storage::SectionId::kDictBlob);
  ASSERT_NE(blob, nullptr);
  ASSERT_GT(blob->size, 0u);
  bytes[blob->offset] ^= 0x20;
  WriteFileBytes(path, bytes);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  Status verified = reader->VerifyChecksums();
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.code(), StatusCode::kCorruptedData);
  EXPECT_NE(verified.message().find("dict_blob"), std::string::npos);
}

// --- Segment catalog semantics, empty stores, column corruption -----

TEST(StorageV2, CatalogIsExposedAndExact) {
  testutil::Dataset data = testutil::RandomDataset(77, 4, 2, 3, 400, 7);
  const std::string path = TempPath("v2_catalog.fdb");
  storage::StoreWriter::Options options;
  options.segment_txns = 64;
  ASSERT_TRUE(storage::WriteStoreFile(path, data.db, data.dict,
                                      data.taxonomy, options)
                  .ok());
  auto reader = storage::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const SegmentCatalog* catalog = reader->catalog();
  ASSERT_NE(catalog, nullptr);
  EXPECT_EQ(reader->db().segment_catalog().get(), catalog);
  ASSERT_EQ(catalog->num_segments(), reader->segments().size() - 1);
  ASSERT_TRUE(std::equal(catalog->boundaries().begin(),
                         catalog->boundaries().end(),
                         reader->segments().begin(),
                         reader->segments().end()));

  // One-sided exactness: an item the catalog rules out must truly be
  // absent; every present item must be possible. Tracked supports are
  // exact per construction.
  for (size_t seg = 0; seg < catalog->num_segments(); ++seg) {
    std::vector<uint32_t> present(reader->db().alphabet_size(), 0);
    for (uint64_t t = catalog->boundaries()[seg];
         t < catalog->boundaries()[seg + 1]; ++t) {
      for (ItemId item : reader->db().Get(static_cast<TxnId>(t))) {
        ++present[item];
      }
    }
    for (ItemId item = 0; item < present.size(); ++item) {
      if (present[item] > 0) {
        EXPECT_TRUE(catalog->MayContain(seg, item))
            << "seg " << seg << " item " << item;
      } else {
        // MayContain may report false positives, never negatives;
        // nothing to assert for absent items.
      }
      const auto tracked = catalog->TrackedSupport(seg, item);
      if (tracked.has_value()) {
        EXPECT_EQ(*tracked, present[item])
            << "seg " << seg << " item " << item;
      }
    }
  }
}

TEST(StorageV2, HeapFallbackMatchesMmap) {
  ConvertedDataset data = MakeConverted("v2_heap");
  storage::OpenOptions heap_options;
  heap_options.force_heap = true;
  auto mapped = storage::StoreReader::Open(data.store_path);
  auto heap = storage::StoreReader::Open(data.store_path, heap_options);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  ASSERT_TRUE(heap.ok()) << heap.status();
  EXPECT_FALSE(heap->mapped());
  EXPECT_EQ(
      MineToCsv(mapped->db(), mapped->taxonomy(), mapped->dict(), 1),
      MineToCsv(heap->db(), heap->taxonomy(), heap->dict(), 1));
}

TEST(StorageV2, EmptyDatabaseRoundTrips) {
  testutil::Dataset data = testutil::PaperToyDataset();
  TransactionDb empty_db;
  const std::string path = TempPath("empty.fdb");
  ASSERT_TRUE(storage::WriteStoreFile(path, empty_db, data.dict,
                                      data.taxonomy)
                  .ok());
  auto reader = storage::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->db().size(), 0u);
  EXPECT_EQ(reader->dict().size(), data.dict.size());
  EXPECT_NE(reader->catalog(), nullptr);
  EXPECT_TRUE(reader->VerifyChecksums().ok());
}

TEST(StorageV2Corruption, TruncatedVarintMidColumnFails) {
  const std::string path = MakeToyStore("v2_trunc_varint");
  std::string bytes = ReadFileBytes(path);
  const auto* items = SectionOf(&bytes, storage::SectionId::kTxnItems);
  ASSERT_NE(items, nullptr);
  ASSERT_GT(items->size, 0u);
  // Setting the continuation bit on the column's last byte makes the
  // final varint run off the end of the section.
  bytes[items->offset + items->size - 1] |= '\x80';
  FixChecksums(&bytes);
  WriteFileBytes(path, bytes);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(reader.status().message().find("truncated varint"),
            std::string::npos);

  // The decode is always bounds-checked: trusted mode must fail too,
  // never crash or mis-read.
  storage::OpenOptions trusting;
  trusting.validate = false;
  EXPECT_FALSE(storage::StoreReader::Open(path, trusting).ok());
}

TEST(StorageV2Corruption, CatalogSegmentBoundsOutOfRangeFails) {
  const std::string path = MakeToyStore("v2_catalog_bounds");
  std::string bytes = ReadFileBytes(path);
  const size_t record = CatalogRecordsOffset(&bytes);
  const uint32_t bogus_min = 0;
  const uint32_t bogus_max = HeaderOf(&bytes)->alphabet_size + 9;
  std::memcpy(bytes.data() + record, &bogus_min, sizeof(bogus_min));
  std::memcpy(bytes.data() + record + sizeof(uint32_t), &bogus_max,
              sizeof(bogus_max));
  FixChecksums(&bytes);
  WriteFileBytes(path, bytes);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(reader.status().message().find("out-of-range item bounds"),
            std::string::npos);
}

TEST(StorageV2Corruption, CatalogBitsetLengthMismatchFails) {
  const std::string path = MakeToyStore("v2_bitset_len");
  std::string bytes = ReadFileBytes(path);
  const auto* entry = SectionOf(&bytes, storage::SectionId::kSegCatalog);
  ASSERT_NE(entry, nullptr);
  storage::SegCatalogHeader ch;
  std::memcpy(&ch, bytes.data() + entry->offset, sizeof(ch));
  ch.bitset_words += 1;  // section size no longer matches the layout
  std::memcpy(bytes.data() + entry->offset, &ch, sizeof(ch));
  FixChecksums(&bytes);
  WriteFileBytes(path, bytes);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(reader.status().message().find("mismatch"),
            std::string::npos);
}

TEST(StorageV2Corruption, SevenSectionTableFails) {
  // A table cut to seven entries (the catalog dropped, checksums
  // fixed) cannot hold one section per id and must be rejected before
  // any varint decoding is attempted.
  const std::string path = MakeToyStore("seven_sections");
  std::string bytes = ReadFileBytes(path);
  ASSERT_EQ(TableOf(&bytes)[7].id,
            static_cast<uint32_t>(storage::SectionId::kSegCatalog));
  HeaderOf(&bytes)->section_count = 7;
  FixChecksums(&bytes);
  WriteFileBytes(path, bytes);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(reader.status().message().find("8 sections"),
            std::string::npos);
}

TEST(StorageV2Corruption, LyingCatalogIsRejectedByValidation) {
  // Validation must catch a zeroed bitset's disagreement with the
  // items column.
  const std::string path = MakeToyStore("v2_lying_catalog");
  std::string bytes = ReadFileBytes(path);
  ZeroFirstCatalogBitset(&bytes);
  WriteFileBytes(path, bytes);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(reader.status().message().find("disagrees"),
            std::string::npos);
}

TEST(StorageV2Corruption, HugeClaimedCountsFailBeforeAllocating) {
  // A corrupt header claiming 2^32-1 transactions (with the segments
  // section patched to agree) must be rejected by the cheap
  // size-vs-section bound, not by a multi-gigabyte reserve() that
  // escapes as bad_alloc.
  const std::string path = MakeToyStore("v2_huge_counts");
  std::string bytes = ReadFileBytes(path);
  const uint64_t huge = 0xFFFFFFFFull;
  HeaderOf(&bytes)->num_transactions = huge;
  const auto* segments = SectionOf(&bytes, storage::SectionId::kSegments);
  ASSERT_NE(segments, nullptr);
  std::memcpy(bytes.data() + segments->offset + sizeof(uint64_t), &huge,
              sizeof(huge));
  FixChecksums(&bytes);
  WriteFileBytes(path, bytes);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(reader.status().message().find("too small"),
            std::string::npos);
}

TEST(StorageV2Corruption, WraparoundGapFailsEvenTrusted) {
  // A 10-byte varint gap of 2^64-1 makes `item += delta` wrap to
  // item-1: in range, nonzero gap — but the decoded transaction is
  // unsorted. The decoder must reject oversized gaps outright, in
  // trusted mode too (this is the "never mis-mine" guarantee).
  const std::string path = MakeToyStore("v2_wrap_gap");
  std::string bytes = ReadFileBytes(path);

  // Re-encode the whole items column with txn 0's first gap replaced
  // by the wraparound value, append it as a fresh section payload (so
  // no other offsets move), and point the section entry at it.
  std::vector<uint8_t> encoded;
  {
    auto reader = storage::StoreReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status();
    for (TxnId t = 0; t < reader->db().size(); ++t) {
      const auto txn = reader->db().Get(t);
      for (size_t i = 0; i < txn.size(); ++i) {
        if (t == 0 && i == 1) {
          storage::PutVarint(~uint64_t{0}, &encoded);  // txn[0] - 1
        } else {
          storage::PutVarint(i == 0 ? txn[i] : txn[i] - txn[i - 1],
                             &encoded);
        }
      }
    }
  }

  const uint64_t new_offset = storage::AlignUp(bytes.size());
  bytes.resize(new_offset, '\0');
  bytes.append(reinterpret_cast<const char*>(encoded.data()),
               encoded.size());
  auto* items = SectionOf(&bytes, storage::SectionId::kTxnItems);
  ASSERT_NE(items, nullptr);
  items->offset = new_offset;
  items->size = encoded.size();
  HeaderOf(&bytes)->file_size = bytes.size();
  FixChecksums(&bytes);
  WriteFileBytes(path, bytes);

  auto validated = storage::StoreReader::Open(path);
  ASSERT_FALSE(validated.ok());
  EXPECT_EQ(validated.status().code(), StatusCode::kCorruptedData);
  storage::OpenOptions trusting;
  trusting.validate = false;
  auto trusted = storage::StoreReader::Open(path, trusting);
  ASSERT_FALSE(trusted.ok());
  EXPECT_EQ(trusted.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(trusted.status().message().find("gap"), std::string::npos)
      << trusted.status();
}

TEST(StorageV2Corruption, NonCanonicalGapFails) {
  // A zero gap inside a transaction means duplicate/unsorted items.
  const std::string path = MakeToyStore("v2_zero_gap");
  std::string bytes = ReadFileBytes(path);
  const auto* items = SectionOf(&bytes, storage::SectionId::kTxnItems);
  ASSERT_NE(items, nullptr);
  // The toy store's first transaction has four items; its second
  // varint is the first gap. Every toy item id fits one byte, so the
  // gap byte sits at offset 1.
  bytes[items->offset + 1] = '\x00';
  FixChecksums(&bytes);
  WriteFileBytes(path, bytes);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  EXPECT_NE(reader.status().message().find("not sorted"),
            std::string::npos);
}

TEST(StorageCorruption, EmptyAndGarbageFilesFailCleanly) {
  const std::string empty = TempPath("empty.fdb");
  WriteFileBytes(empty, "");
  EXPECT_FALSE(storage::StoreReader::Open(empty).ok());

  const std::string garbage = TempPath("garbage.fdb");
  WriteFileBytes(garbage, std::string(4096, '\x5a'));
  auto reader = storage::StoreReader::Open(garbage);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);

  EXPECT_FALSE(
      storage::StoreReader::Open(TempPath("missing_file.fdb")).ok());
}

// --- Append sessions -------------------------------------------------

/// Writes the first `base_txns` transactions of `data` as a fresh v2
/// store at `path`.
void WriteBaseStore(const std::string& path, const testutil::Dataset& data,
                    uint64_t base_txns, uint32_t segment_txns) {
  storage::StoreWriter::Options options;
  options.segment_txns = segment_txns;
  auto writer = storage::StoreWriter::Create(path, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (uint64_t t = 0; t < base_txns; ++t) {
    ASSERT_TRUE(writer->Append(data.db.Get(t)).ok());
  }
  ASSERT_TRUE(writer->Finish(data.dict, data.taxonomy).ok());
}

/// Appends transactions [from, to) of `data` as one session.
void AppendSession(const std::string& path, const testutil::Dataset& data,
                   uint64_t from, uint64_t to) {
  auto writer = storage::StoreWriter::OpenAppend(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (uint64_t t = from; t < to; ++t) {
    ASSERT_TRUE(writer->Append(data.db.Get(t)).ok());
  }
  EXPECT_EQ(writer->appended_transactions(), to - from);
  ASSERT_TRUE(writer->Finish(data.dict, data.taxonomy).ok());
}

TEST(StorageAppend, AppendThenMineEqualsRebuildThenMine) {
  const testutil::Dataset data =
      testutil::RandomDataset(4321, 4, 2, 3, 90, 6);
  const std::string appended_path = TempPath("append_grow.fdb");
  const std::string rebuilt_path = TempPath("append_rebuild.fdb");
  WriteBaseStore(appended_path, data, 60, /*segment_txns=*/16);
  AppendSession(appended_path, data, 60, 90);

  storage::StoreWriter::Options options;
  options.segment_txns = 16;
  ASSERT_TRUE(storage::WriteStoreFile(rebuilt_path, data.db, data.dict,
                                      data.taxonomy, options)
                  .ok());

  auto appended = storage::StoreReader::Open(appended_path);
  auto rebuilt = storage::StoreReader::Open(rebuilt_path);
  ASSERT_TRUE(appended.ok()) << appended.status();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_TRUE(appended->VerifyChecksums().ok());

  // Layout: one extra block pair, table relocated to the trailer.
  EXPECT_EQ(appended->header().section_count,
            storage::kMinSectionCount + 2);
  EXPECT_NE(appended->header().table_offset, 0u);
  EXPECT_EQ(appended->db().size(), 90u);
  ASSERT_NE(appended->catalog(), nullptr);
  // The appended transactions land in fresh segments after the base's
  // [0,16,32,48,60]; the 30 new ones cut at 16 -> [76, 90].
  const std::vector<uint64_t> boundaries(appended->segments().begin(),
                                         appended->segments().end());
  EXPECT_EQ(boundaries,
            (std::vector<uint64_t>{0, 16, 32, 48, 60, 76, 90}));

  for (const int threads : {1, 4}) {
    const std::string expected =
        MineToCsv(data.db, data.taxonomy, data.dict, threads);
    EXPECT_EQ(MineToCsv(appended->db(), appended->taxonomy(),
                        appended->dict(), threads),
              expected)
        << "appended store diverged at " << threads << " thread(s)";
    EXPECT_EQ(MineToCsv(rebuilt->db(), rebuilt->taxonomy(),
                        rebuilt->dict(), threads),
              expected)
        << "rebuilt store diverged at " << threads << " thread(s)";
  }
}

TEST(StorageAppend, EverySessionAddsABlockPair) {
  const testutil::Dataset data =
      testutil::RandomDataset(99, 3, 2, 2, 60, 5);
  const std::string path = TempPath("append_multi.fdb");
  WriteBaseStore(path, data, 30, /*segment_txns=*/8);
  AppendSession(path, data, 30, 45);
  AppendSession(path, data, 45, 60);

  auto reader = storage::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->header().section_count, storage::kMinSectionCount + 4);
  EXPECT_EQ(reader->db().size(), 60u);
  EXPECT_TRUE(reader->VerifyChecksums().ok());
  EXPECT_EQ(MineToCsv(reader->db(), reader->taxonomy(), reader->dict(), 1),
            MineToCsv(data.db, data.taxonomy, data.dict, 1));
}

TEST(StorageAppend, EmptyAppendSessionCommitsCleanly) {
  const testutil::Dataset data = testutil::PaperToyDataset();
  const std::string path = TempPath("append_empty.fdb");
  WriteBaseStore(path, data, data.db.size(), /*segment_txns=*/4);
  const std::string base_csv =
      MineToCsv(data.db, data.taxonomy, data.dict, 1);
  AppendSession(path, data, data.db.size(), data.db.size());

  auto reader = storage::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->db().size(), data.db.size());
  EXPECT_EQ(reader->header().section_count, storage::kMinSectionCount + 2);
  EXPECT_TRUE(reader->VerifyChecksums().ok());
  EXPECT_EQ(MineToCsv(reader->db(), reader->taxonomy(), reader->dict(), 1),
            base_csv);
}

TEST(StorageAppend, DictionaryGrowthPersists) {
  const testutil::Dataset data = testutil::PaperToyDataset();
  const std::string path = TempPath("append_dict_grow.fdb");
  WriteBaseStore(path, data, data.db.size(), /*segment_txns=*/4);

  ItemDictionary grown = data.dict;
  const ItemId new_id = grown.Intern("zz_brand_new_name");
  EXPECT_EQ(new_id, grown.size() - 1);
  {
    auto writer = storage::StoreWriter::OpenAppend(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(writer->Append(data.db.Get(0)).ok());
    ASSERT_TRUE(writer->Finish(grown, data.taxonomy).ok());
  }
  auto reader = storage::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->dict().size(), grown.size());
  EXPECT_EQ(reader->dict().Name(new_id), "zz_brand_new_name");
}

TEST(StorageAppend, MutatedDictionaryIsRejectedAndRolledBack) {
  const testutil::Dataset data = testutil::PaperToyDataset();
  const std::string path = TempPath("append_dict_mutate.fdb");
  WriteBaseStore(path, data, data.db.size(), /*segment_txns=*/4);
  const std::string base_bytes = ReadFileBytes(path);

  // Same size, different names: committed ids would change meaning.
  ItemDictionary renamed;
  for (ItemId id = 0; id < data.dict.size(); ++id) {
    renamed.Intern("renamed_" + std::to_string(id));
  }
  auto writer = storage::StoreWriter::OpenAppend(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE(writer->Append(data.db.Get(0)).ok());
  const Status finished = writer->Finish(renamed, data.taxonomy);
  ASSERT_FALSE(finished.ok());
  EXPECT_NE(finished.message().find("extend"), std::string::npos)
      << finished;
  // The failed session rolled the file back to the base store.
  EXPECT_EQ(ReadFileBytes(path), base_bytes);
  EXPECT_TRUE(storage::StoreReader::Open(path).ok());
  // And the writer refuses further use.
  EXPECT_FALSE(writer->Append(data.db.Get(0)).ok());
}

TEST(StorageAppend, TornStoreRefusesAppendUntilRepaired) {
  const testutil::Dataset data = testutil::PaperToyDataset();
  const std::string path = TempPath("append_torn.fdb");
  WriteBaseStore(path, data, data.db.size(), /*segment_txns=*/4);
  const std::string base_bytes = ReadFileBytes(path);
  WriteFileBytes(path, base_bytes + std::string(33, 'x'));

  auto writer = storage::StoreWriter::OpenAppend(path);
  ASSERT_FALSE(writer.ok());
  EXPECT_NE(writer.status().message().find("repair"), std::string::npos)
      << writer.status();
}

// --- Sharded open: parity with the serial reference decode -----------

/// The pools the parity tests open on: none (inline, or a transient
/// pool for a large store), then 1, 2, 4 and all hardware threads.
std::vector<ThreadPool*> ParityPools() {
  static ThreadPool one(1);
  static ThreadPool two(2);
  static ThreadPool four(4);
  static ThreadPool hardware(0);
  return {nullptr, &one, &two, &four, &hardware};
}

/// Opens the store at `path` on every parity pool, validating and (with
/// no pool and at 4 threads) trusted. Each open must return exactly the
/// serial reference's status; a clean one also its columns and catalog.
/// Returns the validating reference status.
Status ExpectOpenMatchesReference(const std::string& path,
                                  const std::string& label) {
  const std::string bytes = ReadFileBytes(path);
  Status validated;
  for (const bool validate : {true, false}) {
    const testutil::ReferenceStore ref =
        testutil::ReferenceDecodeV2(bytes, validate);
    if (validate) validated = ref.status;
    for (ThreadPool* pool : ParityPools()) {
      const int threads = pool == nullptr ? 0 : pool->num_threads();
      if (!validate && pool != nullptr && threads != 4) continue;
      storage::OpenOptions options;
      options.validate = validate;
      options.pool = pool;
      auto reader = storage::StoreReader::Open(path, options);
      const std::string where = label + " (pool threads " +
                                std::to_string(threads) + ", validate " +
                                std::to_string(validate) + ")";
      EXPECT_EQ(reader.ok() ? Status::OK() : reader.status(), ref.status)
          << where;
      if (!reader.ok() || !ref.status.ok()) continue;
      const TransactionDb expected = TransactionDb::FromBorrowed(
          ref.offsets, ref.items, reader->header().alphabet_size,
          reader->header().max_width);
      EXPECT_EQ(testutil::DbDiff(reader->db(), expected), "") << where;
      EXPECT_EQ(testutil::CatalogDiff(reader->catalog(), &*ref.catalog), "")
          << where;
    }
  }
  return validated;
}

/// Every section of `bytes` with `id`, in table order (an appended
/// store's columns have one block per session).
std::vector<storage::SectionEntry*> SectionsOf(std::string* bytes,
                                               storage::SectionId id) {
  storage::SectionEntry* table = TableOf(bytes);
  std::vector<storage::SectionEntry*> out;
  for (uint32_t i = 0; i < HeaderOf(bytes)->section_count; ++i) {
    if (table[i].id == static_cast<uint32_t>(id)) out.push_back(&table[i]);
  }
  return out;
}

/// Seeded damage to the two columns and the catalog of the v2 store at
/// `path`: single-byte flips, zeroed bytes (zero gaps, empty
/// transactions), varint-shaped overwrites (a run of continuation
/// bytes, which decodes as an oversized or over-long value), pairs of
/// those, truncated blocks, a grown last block, and terminator toggles
/// on both sides of the first 64 KiB chunk boundaries. Each damaged file must
/// open exactly as the serial reference decodes it.
void ExpectDamageMatchesReference(const std::string& path, uint64_t seed,
                                  int per_kind) {
  const std::string clean = ReadFileBytes(path);
  Rng rng(seed);
  int cases = 0;
  int failed = 0;
  const auto check = [&](std::string bytes, const std::string& label) {
    FixChecksums(&bytes);
    WriteFileBytes(path, bytes);
    ++cases;
    if (!ExpectOpenMatchesReference(path, label).ok()) ++failed;
  };
  for (const storage::SectionId id :
       {storage::SectionId::kTxnOffsets, storage::SectionId::kTxnItems,
        storage::SectionId::kSegCatalog}) {
    const std::string name = storage::SectionIdName(id);
    std::string probe = clean;
    std::vector<std::pair<uint64_t, uint64_t>> blocks;  // offset, size
    uint64_t total = 0;
    for (const storage::SectionEntry* e : SectionsOf(&probe, id)) {
      if (e->size == 0) continue;  // an empty append session's block
      blocks.emplace_back(e->offset, e->size);
      total += e->size;
    }
    ASSERT_GT(total, 0u) << name;
    // File offset of the column's `at`-th byte, across blocks.
    const auto locate = [&](uint64_t at) {
      for (const auto& [offset, size] : blocks) {
        if (at < size) return offset + at;
        at -= size;
      }
      return uint64_t{0};
    };
    const bool column = id != storage::SectionId::kSegCatalog;
    // Single-spot damage; each returns its label.
    const auto flip = [&](std::string* bytes) {
      const uint64_t at = locate(rng.Below(total));
      (*bytes)[at] = static_cast<char>((*bytes)[at] ^ (1 + rng.Below(255)));
      return " flip @" + std::to_string(at);
    };
    const auto zero = [&](std::string* bytes) {
      const uint64_t at = locate(rng.Below(total));
      (*bytes)[at] = '\0';
      return " zero byte @" + std::to_string(at);
    };
    const auto run = [&](std::string* bytes) {
      const auto [offset, size] = blocks[rng.Below(blocks.size())];
      const uint64_t start = offset + rng.Below(size);
      const uint64_t length = 1 + rng.Below(12);
      for (uint64_t b = 0; b < length && start + b < offset + size; ++b) {
        (*bytes)[start + b] = static_cast<char>(0x80 | rng.Below(128));
      }
      if (start + length < offset + size) {
        (*bytes)[start + length] = static_cast<char>(rng.Below(128));
      }
      return " run of " + std::to_string(length) + " @" +
             std::to_string(start);
    };
    for (int i = 0; i < per_kind; ++i) {
      std::string bytes = clean;
      const std::string label = name + flip(&bytes);
      check(std::move(bytes), label);
    }
    for (int i = 0; column && i < per_kind; ++i) {
      std::string bytes = clean;
      const std::string label = name + zero(&bytes);
      check(std::move(bytes), label);
    }
    for (int i = 0; column && i < per_kind; ++i) {
      std::string bytes = clean;
      const std::string label = name + run(&bytes);
      check(std::move(bytes), label);
    }
    // Two faults in one column: the lower one must be reported, whatever
    // chunk or shard finds which.
    for (int i = 0; column && i < per_kind; ++i) {
      std::string bytes = clean;
      std::string label = name + (i % 2 == 0 ? zero(&bytes) : run(&bytes));
      label += " and" + run(&bytes);
      check(std::move(bytes), label);
    }
    for (int i = 0; i < 2; ++i) {
      std::string bytes = clean;
      std::vector<storage::SectionEntry*> entries = SectionsOf(&bytes, id);
      std::erase_if(entries, [](const storage::SectionEntry* e) {
        return e->size == 0;
      });
      storage::SectionEntry* e = entries[rng.Below(entries.size())];
      const uint64_t cut = 1 + rng.Below(std::min<uint64_t>(e->size, 16));
      e->size -= cut;
      check(std::move(bytes), name + " truncated by " + std::to_string(cut));
    }
    {
      // Grown over its padding (or the next section): extra bytes past
      // the last value.
      std::string bytes = clean;
      storage::SectionEntry* e = SectionsOf(&bytes, id).back();
      e->size = std::min<uint64_t>(e->size + 1 + rng.Below(7),
                                   bytes.size() - e->offset);
      check(std::move(bytes), name + " grown to " + std::to_string(e->size));
    }
    for (uint64_t boundary = 64 * 1024; column && boundary < total &&
                                        boundary <= 2 * 64 * 1024;
         boundary += 64 * 1024) {
      for (const uint64_t at : {boundary - 1, boundary}) {
        std::string bytes = clean;
        bytes[locate(at)] ^= '\x80';
        check(std::move(bytes), name + " terminator toggle @" +
                                    std::to_string(at));
      }
    }
  }
  WriteFileBytes(path, clean);
  // The damage lands: most of it is caught (a flip can still decode to
  // another valid store, e.g. in a catalog bitset's unused bits).
  EXPECT_GT(failed, cases / 2) << failed << " of " << cases;
}

TEST(StorageShardedOpen, MultiChunkStoreMatchesTheSerialDecode) {
  // ~10K leaves with ids in the thousands: two-byte ids and gaps.
  const testutil::Dataset data =
      testutil::RandomDataset(2024, 40, 4, 5, 100000, 6);
  const std::string path = TempPath("sharded_open.fdb");
  storage::StoreWriter::Options options;
  options.segment_txns = 8192;
  ASSERT_TRUE(storage::WriteStoreFile(path, data.db, data.dict,
                                      data.taxonomy, options)
                  .ok());
  std::string bytes = ReadFileBytes(path);
  // Both columns span several 64 KiB decode chunks, the items column
  // at least 8 at any thread count above one (a chunk is 64 KiB or a
  // quarter of a thread's share, whichever is larger).
  EXPECT_GT(SectionOf(&bytes, storage::SectionId::kTxnOffsets)->size,
            64u * 1024);
  EXPECT_GE(SectionOf(&bytes, storage::SectionId::kTxnItems)->size,
            8u * 64 * 1024);

  EXPECT_TRUE(ExpectOpenMatchesReference(path, "clean").ok());
  auto reader = storage::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(testutil::DbDiff(reader->db(), data.db), "");
  ExpectDamageMatchesReference(path, 99, 3);
}

TEST(StorageShardedOpen, AppendedStoreMatchesTheSerialDecode) {
  const testutil::Dataset data =
      testutil::RandomDataset(606, 20, 4, 4, 32000, 8);
  const std::string path = TempPath("sharded_open_append.fdb");
  WriteBaseStore(path, data, 8000, /*segment_txns=*/3000);
  AppendSession(path, data, 8000, 16000);
  AppendSession(path, data, 16000, 16000);  // an empty block pair
  AppendSession(path, data, 16000, 32000);
  std::string bytes = ReadFileBytes(path);
  ASSERT_EQ(SectionsOf(&bytes, storage::SectionId::kTxnItems).size(), 4u);

  EXPECT_TRUE(ExpectOpenMatchesReference(path, "clean").ok());
  auto reader = storage::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(testutil::DbDiff(reader->db(), data.db), "");
  ExpectDamageMatchesReference(path, 7, 3);
}

}  // namespace
}  // namespace flipper
