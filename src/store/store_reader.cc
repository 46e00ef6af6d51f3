#include "store/store_reader.h"

#include <cstring>
#include <utility>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/string_util.h"
#include "data/schema_io.h"

namespace upskill {
namespace store {
namespace {

// Segment kinds whose payload is an array of 8-byte values; their file
// offsets must be 8-aligned for the zero-copy casts to be legal.
bool NeedsAlignment(SegmentKind kind) {
  return kind == SegmentKind::kUserOffsets || kind == SegmentKind::kActions ||
         kind == SegmentKind::kItemColumns;
}

}  // namespace

std::span<const uint8_t> StoreReader::segment(SegmentKind kind) const {
  for (const SegmentEntry& entry : directory_) {
    if (entry.kind == static_cast<uint32_t>(kind)) {
      return file_->bytes().subspan(entry.offset, entry.length);
    }
  }
  return {};
}

Result<StoreReader> StoreReader::Open(const std::string& path,
                                      const Options& options) {
  Result<std::shared_ptr<MappedFile>> mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  StoreReader reader;
  reader.file_ = std::move(mapped).value();
  const std::span<const uint8_t> bytes = reader.file_->bytes();

  // Prologue: header, then directory, then the header/directory CRC —
  // nothing past the prologue is touched until the checksum clears.
  if (bytes.size() < sizeof(StoreHeader)) {
    return StoreCorruption(
        StoreError::kTruncated,
        StringPrintf("%zu bytes is smaller than the %zu-byte header",
                     bytes.size(), sizeof(StoreHeader)));
  }
  std::memcpy(&reader.header_, bytes.data(), sizeof(StoreHeader));
  const StoreHeader& header = reader.header_;
  if (std::memcmp(header.magic, kStoreMagic, sizeof(kStoreMagic)) != 0) {
    return StoreCorruption(StoreError::kBadMagic, "not a store file");
  }
  if (header.version != kStoreVersion) {
    return StoreCorruption(
        StoreError::kBadVersion,
        StringPrintf("file version %u, this build reads version %u",
                     header.version, kStoreVersion));
  }
  if (header.num_segments != kNumSegments) {
    return StoreCorruption(
        StoreError::kBadSegment,
        StringPrintf("directory has %u segments, expected %u",
                     header.num_segments, kNumSegments));
  }
  const size_t directory_bytes = kNumSegments * sizeof(SegmentEntry);
  if (bytes.size() < kFirstSegmentOffset) {
    return StoreCorruption(
        StoreError::kTruncated,
        StringPrintf("%zu bytes is smaller than the %zu-byte prologue",
                     bytes.size(), kFirstSegmentOffset));
  }
  reader.directory_.resize(kNumSegments);
  std::memcpy(reader.directory_.data(), bytes.data() + kDirectoryOffset,
              directory_bytes);

  StoreHeader crc_header = header;
  crc_header.header_crc = 0;
  Crc32Accumulator prologue_crc;
  prologue_crc.Update(&crc_header, sizeof(crc_header));
  prologue_crc.Update(reader.directory_.data(), directory_bytes);
  if (prologue_crc.Finish() != header.header_crc) {
    return StoreCorruption(StoreError::kHeaderCrc,
                           "header/directory checksum mismatch");
  }

  // The header's recorded size pins the durable extent: shorter means a
  // truncated copy, longer means trailing garbage was appended.
  if (bytes.size() < header.file_size) {
    return StoreCorruption(
        StoreError::kTruncated,
        StringPrintf("file is %zu bytes, header promises %llu", bytes.size(),
                     static_cast<unsigned long long>(header.file_size)));
  }
  if (bytes.size() > header.file_size) {
    return StoreCorruption(
        StoreError::kBadShape,
        StringPrintf("file is %zu bytes, header promises %llu", bytes.size(),
                     static_cast<unsigned long long>(header.file_size)));
  }

  // Directory: every kind exactly once, every segment in bounds.
  uint32_t seen_kinds = 0;
  for (const SegmentEntry& entry : reader.directory_) {
    const SegmentKind kind = static_cast<SegmentKind>(entry.kind);
    if (entry.kind < 1 || entry.kind > kNumSegments) {
      return StoreCorruption(
          StoreError::kBadSegment,
          StringPrintf("unknown segment kind %u", entry.kind));
    }
    const uint32_t bit = 1u << entry.kind;
    if (seen_kinds & bit) {
      return StoreCorruption(
          StoreError::kBadSegment,
          StringPrintf("duplicate %s segment", SegmentKindName(kind)));
    }
    seen_kinds |= bit;
    if (entry.offset < kFirstSegmentOffset ||
        entry.offset > bytes.size() ||
        entry.length > bytes.size() - entry.offset) {
      return StoreCorruption(
          StoreError::kSegmentBounds,
          StringPrintf("%s segment [%llu, +%llu) exceeds the %zu-byte file",
                       SegmentKindName(kind),
                       static_cast<unsigned long long>(entry.offset),
                       static_cast<unsigned long long>(entry.length),
                       bytes.size()));
    }
    if (NeedsAlignment(kind) && entry.offset % 8 != 0) {
      return StoreCorruption(
          StoreError::kBadSegment,
          StringPrintf("%s segment at misaligned offset %llu",
                       SegmentKindName(kind),
                       static_cast<unsigned long long>(entry.offset)));
    }
  }

  // Shape: segment byte sizes must agree with the header's counts. Each
  // segment holds `count` header entries plus `extra` the format adds, of
  // `entry_bytes` each. The count is bounded by the file size before it
  // is added to or multiplied, so a corrupt count cannot wrap the product
  // into a match.
  const auto expect_length = [&](SegmentKind kind, uint64_t count,
                                 uint64_t extra,
                                 uint64_t entry_bytes) -> Status {
    const std::span<const uint8_t> payload = reader.segment(kind);
    if (count > bytes.size() ||
        (count + extra) * entry_bytes != payload.size()) {
      return StoreCorruption(
          StoreError::kBadShape,
          StringPrintf("%s segment is %zu bytes, header count %llu does not "
                       "match",
                       SegmentKindName(kind), payload.size(),
                       static_cast<unsigned long long>(count)));
    }
    return Status::OK();
  };
  UPSKILL_RETURN_IF_ERROR(expect_length(SegmentKind::kUserOffsets,
                                        header.num_users, 1,
                                        sizeof(uint64_t)));
  UPSKILL_RETURN_IF_ERROR(expect_length(SegmentKind::kActions,
                                        header.num_actions, 0,
                                        sizeof(Action)));
  UPSKILL_RETURN_IF_ERROR(expect_length(
      SegmentKind::kItemColumns,
      static_cast<uint64_t>(header.num_features) * header.num_items, 0,
      sizeof(double)));
  // Each item has a name entry of at least its 4-byte length. With no item
  // features the columns segment pins nothing, so the item count is also
  // bounded by the names segment before MapDataset sizes tables by it.
  const size_t item_name_bytes =
      reader.segment(SegmentKind::kItemNames).size();
  if (header.num_items > item_name_bytes / sizeof(uint32_t)) {
    return StoreCorruption(
        StoreError::kBadShape,
        StringPrintf("%s segment is %zu bytes, header count %u does not fit",
                     SegmentKindName(SegmentKind::kItemNames),
                     item_name_bytes, header.num_items));
  }

  // User offsets must be a monotone prefix-sum ending at num_actions;
  // O(users) and cheap, so always checked — a bad offset would otherwise
  // produce spans pointing at other users' (or no one's) actions.
  const std::span<const uint8_t> offsets_bytes =
      reader.segment(SegmentKind::kUserOffsets);
  const uint64_t* offsets =
      reinterpret_cast<const uint64_t*>(offsets_bytes.data());
  if (offsets[0] != 0 || offsets[header.num_users] != header.num_actions) {
    return StoreCorruption(StoreError::kBadShape,
                           "user offsets do not span the action segment");
  }
  for (uint64_t u = 0; u < header.num_users; ++u) {
    if (offsets[u] > offsets[u + 1]) {
      return StoreCorruption(
          StoreError::kBadShape,
          StringPrintf("user offsets decrease at user %llu",
                       static_cast<unsigned long long>(u)));
    }
  }

  if (options.verify_checksums) {
    reader.file_->AdviseSequential();
    for (const SegmentEntry& entry : reader.directory_) {
      const std::span<const uint8_t> payload =
          bytes.subspan(entry.offset, entry.length);
      if (Crc32(payload.data(), payload.size()) != entry.crc) {
        return StoreCorruption(
            StoreError::kSegmentCrc,
            StringPrintf("%s segment checksum mismatch",
                         SegmentKindName(static_cast<SegmentKind>(entry.kind))));
      }
    }
    // With integrity established, domain-check the actions: item ids in
    // range and per-user chronological order (the DP relies on both).
    const Action* actions = reinterpret_cast<const Action*>(
        reader.segment(SegmentKind::kActions).data());
    for (uint64_t u = 0; u < header.num_users; ++u) {
      for (uint64_t n = offsets[u]; n < offsets[u + 1]; ++n) {
        const Action& action = actions[n];
        if (action.item < 0 ||
            action.item >= static_cast<ItemId>(header.num_items)) {
          return StoreCorruption(
              StoreError::kBadValue,
              StringPrintf("action %llu of user %llu references item %d",
                           static_cast<unsigned long long>(n - offsets[u]),
                           static_cast<unsigned long long>(u), action.item));
        }
        if (n > offsets[u] && actions[n - 1].time > action.time) {
          return StoreCorruption(
              StoreError::kBadValue,
              StringPrintf("user %llu actions are not chronological",
                           static_cast<unsigned long long>(u)));
        }
      }
    }
  }

  return reader;
}

Result<Dataset> StoreReader::MapDataset() const {
  // Small sections (schema, items, names) decode into RAM; only the
  // action sequences stay behind as views into the mapping.
  ByteReader schema_bytes(segment(SegmentKind::kSchema));
  Result<FeatureSchema> schema = DeserializeSchema(&schema_bytes);
  if (!schema.ok()) {
    return StoreCorruption(StoreError::kBadShape,
                           "schema segment: " + schema.status().message());
  }
  if (!schema_bytes.exhausted()) {
    return StoreCorruption(StoreError::kBadShape,
                           "trailing bytes after the schema");
  }
  if (schema.value().num_features() !=
      static_cast<int>(header_.num_features)) {
    return StoreCorruption(
        StoreError::kBadShape,
        StringPrintf("schema has %d features, header promises %u",
                     schema.value().num_features(), header_.num_features));
  }

  const auto read_names = [&](SegmentKind kind, uint64_t count,
                              std::vector<std::string>* names) -> Status {
    ByteReader in(segment(kind));
    names->resize(count);
    for (uint64_t i = 0; i < count; ++i) {
      if (!in.Str(&(*names)[i])) {
        return StoreCorruption(
            StoreError::kBadShape,
            StringPrintf("%s segment truncated at entry %llu",
                         SegmentKindName(kind),
                         static_cast<unsigned long long>(i)));
      }
    }
    if (!in.exhausted()) {
      return StoreCorruption(
          StoreError::kBadShape,
          StringPrintf("trailing bytes in the %s segment",
                       SegmentKindName(kind)));
    }
    return Status::OK();
  };

  std::vector<std::string> item_names;
  UPSKILL_RETURN_IF_ERROR(
      read_names(SegmentKind::kItemNames, header_.num_items, &item_names));

  ItemTable items(std::move(schema).value());
  const std::span<const uint8_t> column_bytes =
      segment(SegmentKind::kItemColumns);
  const double* columns = reinterpret_cast<const double*>(column_bytes.data());
  std::vector<double> row(header_.num_features);
  for (uint32_t i = 0; i < header_.num_items; ++i) {
    for (uint32_t f = 0; f < header_.num_features; ++f) {
      row[f] = columns[static_cast<size_t>(f) * header_.num_items + i];
    }
    Result<ItemId> added = items.AddItem(row, std::move(item_names[i]));
    if (!added.ok()) {
      return StoreCorruption(
          StoreError::kBadValue,
          StringPrintf("item %u: %s", i, added.status().message().c_str()));
    }
  }

  ByteReader metadata(segment(SegmentKind::kItemMetadata));
  uint32_t num_metadata = 0;
  if (!metadata.U32(&num_metadata)) {
    return StoreCorruption(StoreError::kBadShape,
                           "item metadata segment truncated");
  }
  for (uint32_t m = 0; m < num_metadata; ++m) {
    std::string key;
    std::vector<double> values(header_.num_items);
    if (!metadata.Str(&key) || !metadata.Doubles(values)) {
      return StoreCorruption(
          StoreError::kBadShape,
          StringPrintf("item metadata column %u truncated", m));
    }
    const Status set = items.SetMetadata(key, std::move(values));
    if (!set.ok()) {
      return StoreCorruption(StoreError::kBadValue,
                             "item metadata: " + set.message());
    }
  }
  if (!metadata.exhausted()) {
    return StoreCorruption(StoreError::kBadShape,
                           "trailing bytes in the item metadata segment");
  }

  std::vector<std::string> user_names;
  UPSKILL_RETURN_IF_ERROR(
      read_names(SegmentKind::kUserNames, header_.num_users, &user_names));

  const uint64_t* offsets = reinterpret_cast<const uint64_t*>(
      segment(SegmentKind::kUserOffsets).data());
  const Action* actions =
      reinterpret_cast<const Action*>(segment(SegmentKind::kActions).data());
  std::vector<std::span<const Action>> views(header_.num_users);
  for (uint64_t u = 0; u < header_.num_users; ++u) {
    views[u] = std::span<const Action>(actions + offsets[u],
                                       offsets[u + 1] - offsets[u]);
  }

  return Dataset::FromMappedSequences(std::move(items), std::move(user_names),
                                      std::move(views), file_);
}

std::string StoreReader::Describe() const {
  std::string out = StringPrintf(
      "store version %u\n"
      "  file_size    %llu bytes\n"
      "  users        %llu\n"
      "  actions      %llu\n"
      "  items        %u\n"
      "  features     %u\n"
      "  segments:\n",
      header_.version, static_cast<unsigned long long>(header_.file_size),
      static_cast<unsigned long long>(header_.num_users),
      static_cast<unsigned long long>(header_.num_actions),
      header_.num_items, header_.num_features);
  for (const SegmentEntry& entry : directory_) {
    out += StringPrintf(
        "    %-14s offset %-12llu length %-12llu crc32 %08x\n",
        SegmentKindName(static_cast<SegmentKind>(entry.kind)),
        static_cast<unsigned long long>(entry.offset),
        static_cast<unsigned long long>(entry.length), entry.crc);
  }
  return out;
}

}  // namespace store
}  // namespace upskill
