#include "store/segment.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <type_traits>

#include "store/block.h"
#include "store/crc32.h"
#include "store/little_endian.h"

namespace spire {

namespace {

/// Bounds-checked cursor over the index sidecar's body.
class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  bool Take(std::size_t size, const std::uint8_t** out) {
    if (offset_ + size > bytes_.size()) return false;
    *out = bytes_.data() + offset_;
    offset_ += size;
    return true;
  }
  bool U32(std::uint32_t* out) {
    const std::uint8_t* p = nullptr;
    if (!Take(4, &p)) return false;
    *out = GetLE32(p);
    return true;
  }
  bool U64(std::uint64_t* out) {
    const std::uint8_t* p = nullptr;
    if (!Take(8, &p)) return false;
    *out = GetLE64(p);
    return true;
  }
  bool AtEnd() const { return offset_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
};

void AppendFileHeader(const char* magic, std::uint16_t version,
                      std::vector<std::uint8_t>* out) {
  for (std::size_t i = 0; i < kMagicBytes; ++i) {
    out->push_back(static_cast<std::uint8_t>(magic[i]));
  }
  PutLE16(version, out);
  PutLE16(0, out);  // Reserved.
}

template <typename Key>
void AddPosting(Key key, std::uint32_t block_index,
                std::map<Key, std::vector<std::uint32_t>>* postings) {
  std::vector<std::uint32_t>& list = (*postings)[key];
  if (list.empty() || list.back() != block_index) {
    list.push_back(block_index);
  }
}

/// Serializes one posting map as u64 count, then per key: u64 key, u32 list
/// length, u32 block indexes (LocationId keys widen losslessly to u64).
template <typename Key>
void AppendPostings(const std::map<Key, std::vector<std::uint32_t>>& postings,
                    std::vector<std::uint8_t>* body) {
  PutLE64(postings.size(), body);
  for (const auto& [key, blocks] : postings) {
    PutLE64(static_cast<std::uint64_t>(key), body);
    PutLE32(static_cast<std::uint32_t>(blocks.size()), body);
    for (std::uint32_t index : blocks) PutLE32(index, body);
  }
}

/// Reads a segment's 8-byte file header and returns its format version.
Result<std::uint16_t> ReadSegmentVersion(std::ifstream* in,
                                         const std::string& path) {
  std::uint8_t header[kArchiveHeaderBytes] = {};
  in->read(reinterpret_cast<char*>(header), sizeof(header));
  if (!in->good()) {
    return Status::Corruption("not a SPIRE archive (too short): " + path);
  }
  if (std::memcmp(header, kArchiveMagic, kMagicBytes) != 0) {
    return Status::Corruption("not a SPIRE archive (bad magic): " + path);
  }
  const std::uint16_t version = GetLE16(header + kMagicBytes);
  if (version != kArchiveVersion && version != kArchiveVersionV1) {
    return Status::NotSupported("unsupported SPIRE archive version " +
                                std::to_string(version) + ": " + path);
  }
  return version;
}

/// The sidecar's tail fingerprint: the last valid block header's own CRC
/// field, which digests every other header field (count, epoch bounds,
/// payload size, payload CRC). Zero when the segment has no blocks.
///
/// Deliberately NOT a CRC over the whole header: CRC-32 of a message
/// concatenated with its own CRC is the fixed residue 0x2144df1c, so that
/// "fingerprint" would be identical for every valid header and match any
/// rewritten tail.
Result<std::uint32_t> TailFingerprint(const std::string& segment_path,
                                      std::uint16_t version,
                                      const std::vector<BlockMeta>& blocks) {
  if (blocks.empty()) return std::uint32_t{0};
  std::ifstream in(segment_path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open archive segment: " + segment_path);
  }
  const std::size_t header_bytes = BlockHeaderBytes(version);
  std::uint8_t header[kBlockHeaderBytesV2] = {};
  in.seekg(static_cast<std::streamoff>(blocks.back().offset));
  in.read(reinterpret_cast<char*>(header),
          static_cast<std::streamsize>(header_bytes));
  if (!in.good()) {
    return Status::Corruption("cannot read tail block header: " +
                              segment_path);
  }
  return GetLE32(header + header_bytes - 4);
}

}  // namespace

void AddBlockPostings(const EventStream& block_events,
                      std::uint32_t block_index, SegmentInfo* info) {
  for (const Event& event : block_events) {
    AddPosting(event.object, block_index, &info->postings);
    if (IsContainmentEvent(event.type)) {
      AddPosting(event.container, block_index, &info->container_postings);
    } else {
      // Location-kind events (Start/EndLocation, Missing) post under the
      // location they name, so ObjectsAt can prune to this list.
      AddPosting(event.location, block_index, &info->location_postings);
    }
  }
}

Result<SegmentInfo> ScanSegment(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open archive segment: " + path);
  in.seekg(0, std::ios::end);
  const std::uint64_t file_bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);

  auto version = ReadSegmentVersion(&in, path);
  if (!version.ok()) return version.status();

  SegmentInfo info;
  info.version = version.value();
  info.file_bytes = file_bytes;
  info.valid_bytes = kArchiveHeaderBytes;

  const std::size_t header_bytes = BlockHeaderBytes(info.version);
  std::vector<std::uint8_t> payload;
  std::uint64_t pos = kArchiveHeaderBytes;
  while (pos + header_bytes <= file_bytes) {
    std::uint8_t block_header[kBlockHeaderBytesV2] = {};
    in.seekg(static_cast<std::streamoff>(pos));
    in.read(reinterpret_cast<char*>(block_header),
            static_cast<std::streamsize>(header_bytes));
    if (!in.good()) break;
    // Any validation failure below means the tail is torn: stop scanning.
    auto header = ParseBlockHeader(block_header, info.version);
    if (!header.ok()) break;
    if (pos + header_bytes + header.value().payload_size > file_bytes) break;
    payload.resize(header.value().payload_size);
    in.read(reinterpret_cast<char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
    if (!in.good()) break;
    if (Crc32(payload.data(), payload.size()) != header.value().payload_crc) {
      break;
    }
    EventStream decoded;
    if (!DecodeBlock(payload.data(), payload.size(), header.value().count,
                     header.value().codec, &decoded)
             .ok()) {
      break;
    }
    // The header's epoch range must be exactly the decoded events' bounds;
    // a wider (or sentinel) range would poison the range-scan skip test.
    Epoch min_epoch = kNeverEpoch;
    Epoch max_epoch = kNeverEpoch;
    for (const Event& event : decoded) {
      const Epoch primary = PrimaryEpoch(event);
      if (min_epoch == kNeverEpoch || primary < min_epoch) {
        min_epoch = primary;
      }
      if (max_epoch == kNeverEpoch || primary > max_epoch) {
        max_epoch = primary;
      }
    }
    if (min_epoch != header.value().min_epoch ||
        max_epoch != header.value().max_epoch) {
      break;
    }

    BlockMeta meta;
    meta.offset = pos;
    meta.count = header.value().count;
    meta.codec = header.value().codec;
    meta.min_epoch = min_epoch;
    meta.max_epoch = max_epoch;
    AddBlockPostings(decoded, static_cast<std::uint32_t>(info.blocks.size()),
                     &info);
    info.blocks.push_back(meta);
    info.events += meta.count;
    pos += header_bytes + header.value().payload_size;
    info.valid_bytes = pos;
  }
  return info;
}

std::string IndexPathFor(const std::string& segment_path) {
  return segment_path + ".spix";
}

Status WriteIndexFile(const std::string& segment_path,
                      const SegmentInfo& info) {
  auto tail_crc = TailFingerprint(segment_path, info.version, info.blocks);
  if (!tail_crc.ok()) return tail_crc.status();

  std::vector<std::uint8_t> body;
  PutLE64(info.valid_bytes, &body);
  PutLE64(info.blocks.size(), &body);
  PutLE16(info.version, &body);
  PutLE16(0, &body);  // Reserved.
  PutLE32(tail_crc.value(), &body);
  for (const BlockMeta& block : info.blocks) {
    PutLE64(block.offset, &body);
    PutLE32(block.count, &body);
    PutLE32(static_cast<std::uint32_t>(block.codec), &body);
    PutLE64(static_cast<std::uint64_t>(block.min_epoch), &body);
    PutLE64(static_cast<std::uint64_t>(block.max_epoch), &body);
  }
  AppendPostings(info.postings, &body);
  AppendPostings(info.location_postings, &body);
  AppendPostings(info.container_postings, &body);

  std::vector<std::uint8_t> bytes;
  bytes.reserve(kArchiveHeaderBytes + body.size() + 4);
  AppendFileHeader(kArchiveIndexMagic, kArchiveIndexVersion, &bytes);
  bytes.insert(bytes.end(), body.begin(), body.end());
  PutLE32(Crc32(body.data(), body.size()), &bytes);

  const std::string path = IndexPathFor(segment_path);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::NotFound("cannot open for writing: " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out.good()) return Status::Internal("write failed: " + path);
  return Status::OK();
}

Result<SegmentInfo> ReadIndexFile(const std::string& segment_path,
                                  std::uint64_t segment_bytes) {
  const std::string path = IndexPathFor(segment_path);
  // One sized read: the sidecar is read on every open.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  if (ec || !in) return Status::NotFound("no archive index sidecar: " + path);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (!in.read(reinterpret_cast<char*>(bytes.data()),
               static_cast<std::streamsize>(size))) {
    return Status::Corruption("cannot read archive index: " + path);
  }
  if (bytes.size() < kArchiveHeaderBytes + 4) {
    return Status::Corruption("archive index too short: " + path);
  }
  if (std::memcmp(bytes.data(), kArchiveIndexMagic, kMagicBytes) != 0) {
    return Status::Corruption("not a SPIRE archive index (bad magic): " +
                              path);
  }
  if (GetLE16(bytes.data() + kMagicBytes) != kArchiveIndexVersion) {
    // Older (or newer) sidecars are rebuildable caches, not data: callers
    // rebuild by scanning and Close() rewrites the current version.
    return Status::NotSupported("unsupported archive index version: " + path);
  }
  const std::span<const std::uint8_t> body(
      bytes.data() + kArchiveHeaderBytes,
      bytes.size() - kArchiveHeaderBytes - 4);
  if (Crc32(body.data(), body.size()) != GetLE32(&bytes[bytes.size() - 4])) {
    return Status::Corruption("archive index checksum mismatch: " + path);
  }

  Cursor cursor(body);
  SegmentInfo info;
  std::uint64_t block_count = 0;
  std::uint32_t segment_version = 0;
  std::uint32_t tail_crc = 0;
  if (!cursor.U64(&info.valid_bytes) || !cursor.U64(&block_count) ||
      !cursor.U32(&segment_version) || !cursor.U32(&tail_crc)) {
    return Status::Corruption("archive index directory truncated: " + path);
  }
  const std::uint16_t version =
      static_cast<std::uint16_t>(segment_version & 0xffff);
  if (version != kArchiveVersion && version != kArchiveVersionV1) {
    return Status::Corruption("archive index names an unknown segment "
                              "version: " + path);
  }
  info.version = version;
  if (info.valid_bytes != segment_bytes) {
    // Covers both directions: a segment that grew past the sidecar (append
    // without Close) and one that shrank below it (post-crash logical
    // truncation) — either way the directory describes a different prefix.
    return Status::Corruption("archive index is stale (covers " +
                              std::to_string(info.valid_bytes) + " of " +
                              std::to_string(segment_bytes) + " bytes): " +
                              path);
  }
  const std::size_t header_bytes = BlockHeaderBytes(info.version);
  std::uint64_t min_next_offset = kArchiveHeaderBytes;
  for (std::uint64_t i = 0; i < block_count; ++i) {
    BlockMeta block;
    std::uint32_t codec = 0;
    std::uint64_t min_epoch = 0;
    std::uint64_t max_epoch = 0;
    if (!cursor.U64(&block.offset) || !cursor.U32(&block.count) ||
        !cursor.U32(&codec) || !cursor.U64(&min_epoch) ||
        !cursor.U64(&max_epoch)) {
      return Status::Corruption("archive index directory truncated: " + path);
    }
    block.codec = static_cast<BlockCodec>(codec);
    block.min_epoch = static_cast<Epoch>(min_epoch);
    block.max_epoch = static_cast<Epoch>(max_epoch);
    // The same invariants ParseBlockHeader enforces on the segment side: a
    // directory with empty, codec-unknown, sentinel-epoch, or out-of-place
    // blocks must not steer scans. The sidecar carries no payload sizes,
    // so exact block contiguity is rechecked against the real header at
    // decode time; here offsets must be in-bounds and strictly advancing
    // past each predecessor's header.
    if (block.count == 0 || codec > 0xff ||
        !KnownBlockCodec(static_cast<std::uint8_t>(codec)) ||
        block.min_epoch < 0 || block.max_epoch < block.min_epoch ||
        block.offset < min_next_offset ||
        block.offset + header_bytes > segment_bytes) {
      return Status::Corruption("archive index directory entry invalid: " +
                                path);
    }
    min_next_offset = block.offset + header_bytes;
    info.blocks.push_back(block);
    info.events += block.count;
  }
  // The three posting sections share one layout; LocationId keys must fit
  // their 16-bit type when narrowed back from the u64 on disk.
  auto parse_postings = [&](auto* postings) -> Status {
    using Key = typename std::decay_t<decltype(*postings)>::key_type;
    std::uint64_t num_keys = 0;
    if (!cursor.U64(&num_keys)) {
      return Status::Corruption("archive index postings truncated: " + path);
    }
    for (std::uint64_t i = 0; i < num_keys; ++i) {
      std::uint64_t key = 0;
      std::uint32_t posting_count = 0;
      if (!cursor.U64(&key) || !cursor.U32(&posting_count)) {
        return Status::Corruption("archive index postings truncated: " + path);
      }
      if (key > std::numeric_limits<Key>::max()) {
        return Status::Corruption("archive index posting key out of range: " +
                                  path);
      }
      std::vector<std::uint32_t>& list = (*postings)[static_cast<Key>(key)];
      list.reserve(posting_count);
      for (std::uint32_t j = 0; j < posting_count; ++j) {
        std::uint32_t index = 0;
        if (!cursor.U32(&index)) {
          return Status::Corruption("archive index postings truncated: " +
                                    path);
        }
        if (index >= info.blocks.size()) {
          return Status::Corruption("archive index posting out of range: " +
                                    path);
        }
        list.push_back(index);
      }
    }
    return Status::OK();
  };
  SPIRE_RETURN_NOT_OK(parse_postings(&info.postings));
  SPIRE_RETURN_NOT_OK(parse_postings(&info.location_postings));
  SPIRE_RETURN_NOT_OK(parse_postings(&info.container_postings));
  if (!cursor.AtEnd()) {
    return Status::Corruption("trailing bytes in archive index: " + path);
  }

  // The covered-bytes equality above cannot tell a segment apart from a
  // different one of the same size (truncated and re-appended); the tail
  // fingerprint can.
  auto fingerprint = TailFingerprint(segment_path, info.version, info.blocks);
  if (!fingerprint.ok()) return fingerprint.status();
  if (fingerprint.value() != tail_crc) {
    return Status::Corruption("archive index tail fingerprint mismatch "
                              "(segment rewritten since indexing): " + path);
  }
  info.file_bytes = segment_bytes;
  return info;
}

}  // namespace spire
