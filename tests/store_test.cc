// Tests for the persistent block-compressed event archive (src/store):
// strict varint/CRC/bitpack primitives, both column-wise block codecs,
// block-header validation (codec ids, sentinel epoch ranges), writer/reader
// round trips over hand-built and simulated streams, the access paths
// (mmap and buffered), torn-tail crash recovery, format-v1 compatibility,
// and index-sidecar staleness handling (grown, shrunk, and rewritten
// same-size segments).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>

#include "common/epc.h"
#include "compress/well_formed.h"
#include "sim/simulator.h"
#include "spire/pipeline.h"
#include "store/archive_reader.h"
#include "store/archive_writer.h"
#include "store/bitpack.h"
#include "store/block.h"
#include "store/crc32.h"
#include "store/little_endian.h"
#include "store/segment.h"
#include "store/varint.h"

namespace spire {
namespace {

ObjectId Obj(PackagingLevel level, std::uint32_t serial) {
  EpcFields fields;
  fields.level = level;
  fields.serial = serial;
  return EncodeEpcUnchecked(fields);
}

const ObjectId kItem = Obj(PackagingLevel::kItem, 1);
const ObjectId kItem2 = Obj(PackagingLevel::kItem, 2);
const ObjectId kCase = Obj(PackagingLevel::kCase, 3);

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void RemoveArchive(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(IndexPathFor(path), ec);
}

/// A canonical mixed stream: every message kind, several objects, epochs
/// near-sorted the way the pipeline emits them.
EventStream SampleStream() {
  return {
      Event::StartLocation(kItem, 4, 10),
      Event::StartLocation(kCase, 4, 10),
      Event::StartContainment(kItem, kCase, 12),
      Event::EndLocation(kItem, 4, 10, 20),
      Event::Missing(kItem, 4, 20),
      Event::StartLocation(kItem, 7, 25),
      Event::StartLocation(kItem2, 7, 26),
      Event::EndContainment(kItem, kCase, 12, 40),
      Event::EndLocation(kItem, 7, 25, 50),
      Event::EndLocation(kItem2, 7, 26, 55),
      Event::EndLocation(kCase, 4, 10, 60),
  };
}

/// `rounds` copies of the sample pattern shifted in time, to fill many
/// blocks.
EventStream LongStream(int rounds) {
  EventStream stream;
  for (int round = 0; round < rounds; ++round) {
    const Epoch base = 100 * round;
    for (Event event : SampleStream()) {
      if (event.start != kNeverEpoch && event.start != kInfiniteEpoch) {
        event.start += base;
      }
      if (event.end != kInfiniteEpoch) event.end += base;
      stream.push_back(event);
    }
  }
  return stream;
}

EventStream FilterByPrimary(const EventStream& stream, Epoch lo, Epoch hi) {
  EventStream filtered;
  for (const Event& event : stream) {
    const Epoch primary = PrimaryEpoch(event);
    if (lo <= primary && primary <= hi) filtered.push_back(event);
  }
  return filtered;
}

// ------------------------------------------------------------- primitives --

TEST(VarintTest, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ull << 32) - 1,
                                  1ull << 62,
                                  ~0ull};
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t value : values) PutVarint64(value, &bytes);
  std::size_t offset = 0;
  for (std::uint64_t value : values) {
    auto decoded = GetVarint64(bytes, &offset);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), value);
  }
  EXPECT_EQ(offset, bytes.size());
}

TEST(VarintTest, RejectsTruncation) {
  std::vector<std::uint8_t> bytes;
  PutVarint64(1ull << 40, &bytes);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    std::size_t offset = 0;
    EXPECT_FALSE(GetVarint64(truncated, &offset).ok());
  }
}

TEST(VarintTest, RejectsTenthByteOverflow) {
  // Nine continuation bytes supply 63 bits, so only the lowest bit of the
  // tenth byte is payload. 0xff x9 + 0x01 is the canonical ~0ull encoding...
  std::vector<std::uint8_t> max_encoding(9, 0xff);
  max_encoding.push_back(0x01);
  std::size_t offset = 0;
  auto max_decoded = GetVarint64(max_encoding, &offset);
  ASSERT_TRUE(max_decoded.ok());
  EXPECT_EQ(max_decoded.value(), ~0ull);
  EXPECT_EQ(offset, 10u);

  // ...and any tenth byte with higher bits set would silently shift value
  // bits out in a lenient decoder. Strict decode calls it corruption.
  for (int tenth : {0x02, 0x03, 0x42, 0x7f}) {
    std::vector<std::uint8_t> bytes(9, 0x80);
    bytes.push_back(static_cast<std::uint8_t>(tenth));
    offset = 0;
    auto decoded = GetVarint64(bytes, &offset);
    ASSERT_FALSE(decoded.ok()) << "tenth byte " << tenth;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }

  // An eleventh byte never decodes, continuation or not.
  std::vector<std::uint8_t> eleven(10, 0x80);
  eleven.push_back(0x00);
  offset = 0;
  EXPECT_FALSE(GetVarint64(eleven, &offset).ok());
}

TEST(VarintTest, RejectsNonCanonicalPadding) {
  // Each of these pads a short value with a trailing 0x00 terminator —
  // decoding to the same value as a shorter encoding. A lenient decoder
  // accepts them, which breaks the one-encoding-per-value property the
  // byte-identical fuzz oracles rely on.
  const std::vector<std::vector<std::uint8_t>> padded = {
      {0x80, 0x00},                    // 0 padded to two bytes
      {0xff, 0x80, 0x00},              // 127 padded to three
      {0x81, 0x80, 0x80, 0x00},        // 1 padded to four
      {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
  };
  for (const auto& bytes : padded) {
    std::size_t offset = 0;
    auto decoded = GetVarint64(bytes, &offset);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
    // The skip primitive is length-checked only; it must still advance.
    offset = 0;
    EXPECT_TRUE(SkipVarint64(bytes.data(), bytes.size(), &offset).ok());
    EXPECT_EQ(offset, bytes.size());
  }
  // A lone 0x00 is the canonical encoding of zero, not padding.
  const std::vector<std::uint8_t> zero = {0x00};
  std::size_t offset = 0;
  auto decoded = GetVarint64(zero, &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), 0u);
}

TEST(VarintTest, ZigzagRoundTrips) {
  const std::int64_t values[] = {0, -1, 1, -2, 1000, -1000,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (std::int64_t value : values) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(value)), value);
  }
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
}

TEST(Crc32Test, MatchesKnownVector) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xcbf43926u);
}

TEST(Crc32Test, SeedChainsAcrossCalls) {
  EXPECT_EQ(Crc32("56789", 5, Crc32("1234", 4)), Crc32("123456789", 9));
}

// ---------------------------------------------------------------- bitpack --

/// Packs `values` and returns the packed bytes followed by the payload pad,
/// the shape UnpackColumn expects to read from.
std::vector<std::uint8_t> PackWithPad(const std::vector<std::uint64_t>& values) {
  std::vector<std::uint8_t> bytes;
  PackColumn(values.data(), values.size(), &bytes);
  bytes.insert(bytes.end(), kBitpackPadBytes, 0);
  return bytes;
}

TEST(BitpackTest, RoundTripsEveryWidth) {
  for (unsigned width = 0; width <= 64; ++width) {
    // 300 values spanning full, full, and partial miniblocks, each
    // miniblock genuinely needing `width` bits (top bit set).
    std::vector<std::uint64_t> values(300);
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = width == 0
                      ? 0
                      : (1ull << (width - 1)) |
                            (i & bitpack_internal::Mask(width - 1));
    }
    const std::vector<std::uint8_t> bytes = PackWithPad(values);
    std::vector<std::uint64_t> decoded(values.size());
    std::size_t offset = 0;
    ASSERT_TRUE(UnpackColumn(bytes.data(), bytes.size(), &offset,
                             values.size(), decoded.data())
                    .ok())
        << "width " << width;
    EXPECT_EQ(decoded, values) << "width " << width;
    EXPECT_EQ(offset, bytes.size() - kBitpackPadBytes);

    // Skip lands exactly where decode does.
    std::size_t skip_offset = 0;
    ASSERT_TRUE(
        SkipColumn(bytes.data(), bytes.size(), &skip_offset, values.size())
            .ok());
    EXPECT_EQ(skip_offset, offset);
  }
}

TEST(BitpackTest, RejectsNonMinimalWidth) {
  // One value of 1 declared at width 2: decodes fine in a lenient reader,
  // but violates the canonical minimal-width rule.
  const std::vector<std::uint8_t> bytes = {0x02, 0x01, 0, 0, 0, 0, 0, 0, 0, 0};
  std::uint64_t out = 0;
  std::size_t offset = 0;
  auto status = UnpackColumn(bytes.data(), bytes.size(), &offset, 1, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST(BitpackTest, RejectsNonzeroTailBits) {
  // One value at width 1 uses one bit of its packed byte; the other seven
  // must be zero.
  const std::vector<std::uint8_t> bytes = {0x01, 0x03, 0, 0, 0, 0, 0, 0, 0, 0};
  std::uint64_t out = 0;
  std::size_t offset = 0;
  auto status = UnpackColumn(bytes.data(), bytes.size(), &offset, 1, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST(BitpackTest, RejectsOverwideAndTruncatedMiniblocks) {
  // Width byte 65 can never be valid for 64-bit values.
  const std::vector<std::uint8_t> overwide = {65, 0, 0, 0, 0, 0, 0, 0, 0};
  std::uint64_t out = 0;
  std::size_t offset = 0;
  EXPECT_FALSE(
      UnpackColumn(overwide.data(), overwide.size(), &offset, 1, &out).ok());

  // A full column that loses its pad (or any tail bytes) is truncation —
  // the decoder must refuse rather than read past the buffer.
  std::vector<std::uint64_t> values(kMiniblockValues, 0xabcd);
  std::vector<std::uint8_t> bytes = PackWithPad(values);
  std::vector<std::uint64_t> decoded(values.size());
  for (std::size_t cut = 1; cut <= kBitpackPadBytes + 2; ++cut) {
    offset = 0;
    EXPECT_FALSE(UnpackColumn(bytes.data(), bytes.size() - cut, &offset,
                              values.size(), decoded.data())
                     .ok())
        << "cut " << cut;
    offset = 0;
    EXPECT_FALSE(SkipColumn(bytes.data(), bytes.size() - cut, &offset,
                            values.size())
                     .ok())
        << "cut " << cut;
  }
}

// ------------------------------------------------------------ block header --

BlockHeader SampleHeader() {
  BlockHeader header;
  header.count = 7;
  header.codec = BlockCodec::kBitpack;
  header.min_epoch = 10;
  header.max_epoch = 60;
  header.payload_size = 123;
  header.payload_crc = 0xdeadbeef;
  return header;
}

TEST(BlockHeaderTest, RoundTripsBothVersions) {
  for (std::uint16_t version : {kArchiveVersionV1, kArchiveVersion}) {
    BlockHeader header = SampleHeader();
    if (version == kArchiveVersionV1) header.codec = BlockCodec::kVarint;
    std::vector<std::uint8_t> bytes;
    AppendBlockHeader(header, version, &bytes);
    ASSERT_EQ(bytes.size(), BlockHeaderBytes(version));
    auto parsed = ParseBlockHeader(bytes.data(), version);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().count, header.count);
    EXPECT_EQ(parsed.value().codec, header.codec);
    EXPECT_EQ(parsed.value().min_epoch, header.min_epoch);
    EXPECT_EQ(parsed.value().max_epoch, header.max_epoch);
    EXPECT_EQ(parsed.value().payload_size, header.payload_size);
    EXPECT_EQ(parsed.value().payload_crc, header.payload_crc);
  }
  EXPECT_EQ(BlockHeaderBytes(kArchiveVersionV1), kBlockHeaderBytesV1);
  EXPECT_EQ(BlockHeaderBytes(kArchiveVersion), kBlockHeaderBytesV2);
}

/// Serializes `header`, applies `mutate` to the raw bytes, re-stamps the
/// header CRC so only the semantic check under test can fire, and parses.
template <typename Mutate>
Status ParseMutatedHeader(const BlockHeader& header, Mutate mutate) {
  std::vector<std::uint8_t> bytes;
  AppendBlockHeader(header, kArchiveVersion, &bytes);
  mutate(bytes.data());
  const std::uint32_t crc = Crc32(bytes.data(), kBlockHeaderBytesV2 - 4);
  bytes[36] = static_cast<std::uint8_t>(crc);
  bytes[37] = static_cast<std::uint8_t>(crc >> 8);
  bytes[38] = static_cast<std::uint8_t>(crc >> 16);
  bytes[39] = static_cast<std::uint8_t>(crc >> 24);
  return ParseBlockHeader(bytes.data(), kArchiveVersion).status();
}

TEST(BlockHeaderTest, RejectsSentinelAndInvertedEpochRanges) {
  // A sealed block holds >= 1 validated events, so 0 <= min <= max always;
  // the kNeverEpoch sentinel reads back as a huge epoch that would make
  // Intersects match every range and defeat the range-scan skip.
  BlockHeader sentinel_min = SampleHeader();
  sentinel_min.min_epoch = kNeverEpoch;
  BlockHeader sentinel_max = SampleHeader();
  sentinel_max.max_epoch = kNeverEpoch;
  BlockHeader sentinel_both = SampleHeader();
  sentinel_both.min_epoch = kNeverEpoch;
  sentinel_both.max_epoch = kNeverEpoch;
  BlockHeader inverted = SampleHeader();
  inverted.min_epoch = 60;
  inverted.max_epoch = 10;
  for (const BlockHeader& bad :
       {sentinel_min, sentinel_max, sentinel_both, inverted}) {
    Status status = ParseMutatedHeader(bad, [](std::uint8_t*) {});
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kCorruption);
  }
  // The boundary cases stay valid.
  BlockHeader zero = SampleHeader();
  zero.min_epoch = 0;
  zero.max_epoch = 0;
  EXPECT_TRUE(ParseMutatedHeader(zero, [](std::uint8_t*) {}).ok());
}

TEST(BlockHeaderTest, RejectsUnknownCodecZeroCountAndOversizedPayload) {
  // Codec ids this build does not know are corruption even under a valid
  // CRC — decoding with the wrong codec would be worse than failing.
  EXPECT_FALSE(ParseMutatedHeader(SampleHeader(), [](std::uint8_t* bytes) {
                 bytes[32] = 2;
               }).ok());
  EXPECT_FALSE(ParseMutatedHeader(SampleHeader(), [](std::uint8_t* bytes) {
                 bytes[33] = 1;  // Reserved codec-word bytes must be zero.
               }).ok());
  BlockHeader empty = SampleHeader();
  empty.count = 0;
  EXPECT_FALSE(ParseMutatedHeader(empty, [](std::uint8_t*) {}).ok());
  BlockHeader fat = SampleHeader();
  fat.payload_size = kMaxBlockPayloadBytes + 1;
  EXPECT_FALSE(ParseMutatedHeader(fat, [](std::uint8_t*) {}).ok());
  // Flipping any CRC-covered byte without re-stamping must fail too.
  std::vector<std::uint8_t> bytes;
  AppendBlockHeader(SampleHeader(), kArchiveVersion, &bytes);
  bytes[8] ^= 0xff;
  EXPECT_FALSE(ParseBlockHeader(bytes.data(), kArchiveVersion).ok());
}

// ------------------------------------------------------------ block codec --

TEST(BlockCodecTest, RoundTripsMixedEvents) {
  const EventStream stream = SampleStream();
  auto encoded = EncodeBlock(stream, 0, stream.size());
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded.value().count, stream.size());
  EXPECT_EQ(encoded.value().min_epoch, 10);
  EXPECT_EQ(encoded.value().max_epoch, 60);
  // Far below the 26-byte flat record.
  EXPECT_LT(encoded.value().payload.size(), stream.size() * kEventWireBytes / 2);

  EventStream decoded;
  ASSERT_TRUE(
      DecodeBlock(encoded.value().payload, encoded.value().count, &decoded)
          .ok());
  EXPECT_EQ(decoded, stream);
}

TEST(BlockCodecTest, RejectsNonCanonicalEvents) {
  Event closed_start = Event::StartLocation(kItem, 4, 10);
  closed_start.end = 20;
  Event negative = Event::StartLocation(kItem, 4, -3);
  Event inverted_end = Event::EndLocation(kItem, 4, 30, 20);
  Event fat_missing = Event::Missing(kItem, 4, 10);
  fat_missing.end = 12;
  for (const Event& event : {closed_start, negative, inverted_end,
                             fat_missing}) {
    EXPECT_FALSE(ValidateArchivable(event).ok()) << event.ToString();
    EXPECT_FALSE(EncodeBlock({event}, 0, 1).ok()) << event.ToString();
  }
}

TEST(BlockCodecTest, DecodeRejectsCorruptionAtEveryOffset) {
  const EventStream stream = SampleStream();
  auto encoded = EncodeBlock(stream, 0, stream.size());
  ASSERT_TRUE(encoded.ok());
  const std::vector<std::uint8_t>& payload = encoded.value().payload;
  // Flipping any byte must fail, or decode the full event count — never
  // crash, never silently drop records.
  for (std::size_t offset = 0; offset < payload.size(); ++offset) {
    std::vector<std::uint8_t> flipped = payload;
    flipped[offset] ^= 0xff;
    EventStream decoded;
    Status status = DecodeBlock(flipped, encoded.value().count, &decoded);
    if (status.ok()) {
      EXPECT_EQ(decoded.size(), stream.size()) << "offset " << offset;
    } else {
      EXPECT_FALSE(status.message().empty()) << "offset " << offset;
    }
  }
  // Any truncation must fail.
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    std::vector<std::uint8_t> truncated(payload.begin(),
                                        payload.begin() + cut);
    EventStream decoded;
    EXPECT_FALSE(
        DecodeBlock(truncated, encoded.value().count, &decoded).ok())
        << "cut " << cut;
  }
}

TEST(BlockCodecTest, BitpackRoundTripsMixedEvents) {
  const EventStream stream = LongStream(5);
  auto encoded = EncodeBlock(stream, 0, stream.size(), BlockCodec::kBitpack);
  ASSERT_TRUE(encoded.ok());
  const EncodedBlock& block = encoded.value();
  EXPECT_EQ(block.codec, BlockCodec::kBitpack);
  EXPECT_EQ(block.count, stream.size());
  EXPECT_EQ(block.min_epoch, 10);
  EXPECT_EQ(block.max_epoch, 460);

  EventStream decoded;
  ASSERT_TRUE(DecodeBlock(block.payload.data(), block.payload.size(),
                          block.count, BlockCodec::kBitpack, &decoded)
                  .ok());
  EXPECT_EQ(decoded, stream);
}

TEST(BlockCodecTest, BothCodecsReencodeByteIdentical) {
  // Canonical encodings (strict varints, minimal bit widths, zero pads)
  // mean decode-then-reencode reproduces the exact payload — the property
  // the fuzz oracle asserts across the whole corpus.
  const EventStream stream = LongStream(5);
  for (BlockCodec codec : {BlockCodec::kVarint, BlockCodec::kBitpack}) {
    auto encoded = EncodeBlock(stream, 0, stream.size(), codec);
    ASSERT_TRUE(encoded.ok());
    EventStream decoded;
    ASSERT_TRUE(DecodeBlock(encoded.value().payload.data(),
                            encoded.value().payload.size(),
                            encoded.value().count, codec, &decoded)
                    .ok());
    auto reencoded = EncodeBlock(decoded, 0, decoded.size(), codec);
    ASSERT_TRUE(reencoded.ok());
    EXPECT_EQ(reencoded.value().payload, encoded.value().payload)
        << ToString(codec);
  }
}

TEST(BlockCodecTest, BitpackDecodeRejectsCorruptionAtEveryOffset) {
  const EventStream stream = SampleStream();
  auto encoded = EncodeBlock(stream, 0, stream.size(), BlockCodec::kBitpack);
  ASSERT_TRUE(encoded.ok());
  const std::vector<std::uint8_t>& payload = encoded.value().payload;
  for (std::size_t offset = 0; offset < payload.size(); ++offset) {
    std::vector<std::uint8_t> flipped = payload;
    flipped[offset] ^= 0xff;
    EventStream decoded;
    Status status = DecodeBlock(flipped.data(), flipped.size(),
                                encoded.value().count, BlockCodec::kBitpack,
                                &decoded);
    if (status.ok()) {
      EXPECT_EQ(decoded.size(), stream.size()) << "offset " << offset;
    } else {
      EXPECT_FALSE(status.message().empty()) << "offset " << offset;
    }
  }
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EventStream decoded;
    EXPECT_FALSE(DecodeBlock(payload.data(), cut, encoded.value().count,
                             BlockCodec::kBitpack, &decoded)
                     .ok())
        << "cut " << cut;
  }
}

TEST(BlockCodecTest, EpochColumnMatchesFullDecode) {
  const EventStream stream = LongStream(5);
  for (BlockCodec codec : {BlockCodec::kVarint, BlockCodec::kBitpack}) {
    auto encoded = EncodeBlock(stream, 0, stream.size(), codec);
    ASSERT_TRUE(encoded.ok());
    std::vector<Epoch> epochs;
    ASSERT_TRUE(DecodeBlockEpochs(encoded.value().payload.data(),
                                  encoded.value().payload.size(),
                                  encoded.value().count, codec, &epochs)
                    .ok());
    ASSERT_EQ(epochs.size(), stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
      EXPECT_EQ(epochs[i], PrimaryEpoch(stream[i])) << "event " << i;
    }
  }
}

/// A stream whose kVarint block holds varints of every length 1-10: object
/// and container ids climb in steps whose zigzag deltas take 1, 2, ..., 10
/// bytes, then jump to the top of the id range (kNoObject - 1, kNoObject).
/// Its last event moves the epoch by 2^62, a 10-byte delta; without End
/// events that delta is the payload's last varint.
EventStream WideVarintStream(bool with_ends) {
  EventStream stream;
  ObjectId object = 0;
  ObjectId container = 0;
  Epoch epoch = 0;
  for (int length = 1; length <= 10; ++length) {
    // A delta d > 0 zigzags to 2d, and 2^(7(length-1)) takes `length` bytes.
    const std::uint64_t step =
        length == 1 ? 1 : std::uint64_t{1} << (7 * (length - 1) - 1);
    object += step;
    container += step;
    if (length < 10) epoch += static_cast<Epoch>(step);
    const auto location = static_cast<LocationId>(length);
    stream.push_back(Event::StartLocation(object, location, epoch));
    stream.push_back(Event::StartContainment(object, container, epoch));
    if (with_ends) {
      stream.push_back(Event::EndLocation(object, location, 0, epoch));
      stream.push_back(
          Event::EndContainment(object, container, epoch / 2, epoch));
    }
  }
  stream.push_back(Event::StartLocation(kNoObject - 1, 65535, epoch));
  stream.push_back(Event::StartContainment(kNoObject - 1, kNoObject, epoch));
  stream.push_back(
      Event::Missing(kNoObject - 1, 65535, epoch + (Epoch{1} << 62)));
  return stream;
}

/// Byte lengths of the varints after the type column of a kVarint payload.
std::vector<std::size_t> VarintLengths(const EncodedBlock& block) {
  std::vector<std::size_t> lengths;
  std::size_t offset = block.count;
  while (offset < block.payload.size()) {
    const std::size_t start = offset;
    if (!GetVarint64(block.payload, &offset).ok()) break;
    lengths.push_back(offset - start);
  }
  return lengths;
}

TEST(BlockCodecTest, MutatedPayloadsDecodeCanonicallyOrFailCleanly) {
  // Any payload DecodeBlock accepts must be the canonical encoding of what
  // it decoded (block.h): exactly `count` events that re-encode to the
  // same bytes. Any payload it rejects must fail with a described
  // Corruption and leave `out` as it was.
  constexpr std::uint8_t kEdgeBytes[] = {0x00, 0x01, 0x7f, 0x80, 0xff};
  std::mt19937_64 rng(20080407);
  for (bool with_ends : {false, true}) {
    const EventStream stream = WideVarintStream(with_ends);
    auto varint = EncodeBlock(stream, 0, stream.size(), BlockCodec::kVarint);
    ASSERT_TRUE(varint.ok());
    const std::vector<std::size_t> lengths = VarintLengths(varint.value());
    for (std::size_t length = 1; length <= kMaxVarintBytes; ++length) {
      EXPECT_NE(std::find(lengths.begin(), lengths.end(), length),
                lengths.end())
          << "no " << length << "-byte varint";
    }
    if (!with_ends) {
      // The last varint ends at the payload end: its decode reads the
      // final 10 bytes, where the unchecked read path meets the bounded.
      ASSERT_FALSE(lengths.empty());
      EXPECT_EQ(lengths.back(), kMaxVarintBytes);
    }

    for (BlockCodec codec : {BlockCodec::kVarint, BlockCodec::kBitpack}) {
      auto encoded = EncodeBlock(stream, 0, stream.size(), codec);
      ASSERT_TRUE(encoded.ok());
      const EncodedBlock& block = encoded.value();
      std::size_t accepted = 0;
      std::size_t rejected = 0;
      auto check = [&](const std::vector<std::uint8_t>& payload,
                       const std::string& what) {
        const EventStream before(2, Event::Missing(kItem, 4, 9));
        EventStream out = before;
        const Status status = DecodeBlock(payload.data(), payload.size(),
                                          block.count, codec, &out);
        if (!status.ok()) {
          ++rejected;
          EXPECT_EQ(status.code(), StatusCode::kCorruption) << what;
          EXPECT_FALSE(status.message().empty()) << what;
          EXPECT_EQ(out, before) << what;
          return;
        }
        ++accepted;
        ASSERT_EQ(out.size(), before.size() + block.count) << what;
        EXPECT_TRUE(std::equal(before.begin(), before.end(), out.begin()))
            << what;
        auto reencoded = EncodeBlock(out, before.size(), block.count, codec);
        ASSERT_TRUE(reencoded.ok()) << what;
        EXPECT_EQ(reencoded.value().payload, payload) << what;
      };
      check(block.payload, "unmutated");
      for (int trial = 0; trial < 4000; ++trial) {
        std::vector<std::uint8_t> mutated = block.payload;
        const int bytes = 1 + static_cast<int>(rng() % 4);
        for (int k = 0; k < bytes; ++k) {
          const std::size_t at = rng() % mutated.size();
          mutated[at] = rng() % 2 == 0 ? kEdgeBytes[rng() % 5]
                                       : static_cast<std::uint8_t>(rng());
        }
        check(mutated, "trial " + std::to_string(trial));
      }
      for (std::size_t cut = 0; cut < block.payload.size(); ++cut) {
        const std::size_t before = rejected;
        check({block.payload.begin(), block.payload.begin() + cut},
              "cut " + std::to_string(cut));
        EXPECT_EQ(rejected, before + 1) << "cut " << cut << " decoded";
      }
      // Both outcomes occur, so both halves of the property were tested.
      EXPECT_GT(accepted, 1u) << ToString(codec);
      EXPECT_GT(rejected, block.payload.size()) << ToString(codec);
    }
  }
}

// --------------------------------------------------------- writer/reader --

TEST(ArchiveTest, RoundTripsAcrossManyBlocks) {
  const std::string path = TempPath("roundtrip.sparc");
  RemoveArchive(path);
  const EventStream stream = LongStream(40);

  ArchiveOptions options;
  options.block_events = 32;  // Force many blocks.
  auto writer = ArchiveWriter::Open(path, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Append(stream).ok());
  ASSERT_TRUE(writer.value()->Close().ok());
  EXPECT_GT(writer.value()->num_blocks(), 10u);
  EXPECT_EQ(writer.value()->events_written(), stream.size());

  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader.value().index_rebuilt());
  EXPECT_EQ(reader.value().num_events(), stream.size());
  auto scanned = reader.value().ScanAll();
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned.value(), stream);
}

TEST(ArchiveTest, TimeRangeScanEqualsFilteredFullDecode) {
  const std::string path = TempPath("range.sparc");
  RemoveArchive(path);
  const EventStream stream = LongStream(40);
  ArchiveOptions options;
  options.block_events = 32;
  auto writer = ArchiveWriter::Open(path, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Append(stream).ok());
  ASSERT_TRUE(writer.value()->Close().ok());

  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  for (auto [lo, hi] : {std::pair<Epoch, Epoch>{0, 99},
                        {150, 430},
                        {1000, 2000},
                        {3990, 100000},
                        {700, 700}}) {
    auto ranged = reader.value().ScanRange(lo, hi);
    ASSERT_TRUE(ranged.ok());
    EXPECT_EQ(ranged.value(), FilterByPrimary(stream, lo, hi))
        << "[" << lo << ", " << hi << "]";
  }
  // A narrow window must skip most blocks.
  EXPECT_LT(reader.value().BlocksInRange(150, 430),
            reader.value().num_blocks() / 2);
  EXPECT_EQ(reader.value().BlocksInRange(1 << 20, 2 << 20), 0u);
}

TEST(ArchiveTest, PerObjectScanUsesPostings) {
  const std::string path = TempPath("object.sparc");
  RemoveArchive(path);
  const EventStream stream = LongStream(40);
  ArchiveOptions options;
  options.block_events = 32;
  auto writer = ArchiveWriter::Open(path, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Append(stream).ok());
  ASSERT_TRUE(writer.value()->Close().ok());

  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  for (ObjectId object : {kItem, kItem2, kCase}) {
    auto scanned = reader.value().ScanObject(object);
    ASSERT_TRUE(scanned.ok());
    EventStream expected;
    for (const Event& event : stream) {
      if (event.object == object) expected.push_back(event);
    }
    EXPECT_EQ(scanned.value(), expected);
    EXPECT_LE(reader.value().BlocksForObject(object),
              reader.value().num_blocks());
  }
  EXPECT_TRUE(reader.value()
                  .ScanObject(Obj(PackagingLevel::kItem, 999))
                  .value()
                  .empty());
}

TEST(ArchiveTest, ReopenAppendsAfterClose) {
  const std::string path = TempPath("reopen.sparc");
  RemoveArchive(path);
  const EventStream first = LongStream(10);
  const EventStream second = LongStream(20);

  ArchiveOptions options;
  options.block_events = 32;
  {
    auto writer = ArchiveWriter::Open(path, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(first).ok());
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  {
    auto writer = ArchiveWriter::Open(path, options);
    ASSERT_TRUE(writer.ok());
    EXPECT_EQ(writer.value()->recovery().recovered_events, first.size());
    EXPECT_EQ(writer.value()->recovery().truncated_bytes, 0u);
    ASSERT_TRUE(writer.value()->Append(second).ok());
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EventStream expected = first;
  expected.insert(expected.end(), second.begin(), second.end());
  EXPECT_EQ(reader.value().ScanAll().value(), expected);
}

TEST(ArchiveTest, TornTailRecoveryLosesAtMostLastBlock) {
  const std::string path = TempPath("torn.sparc");
  RemoveArchive(path);
  const EventStream stream = LongStream(40);
  ArchiveOptions options;
  options.block_events = 32;
  std::uint64_t full_bytes = 0;
  std::size_t full_blocks = 0;
  {
    auto writer = ArchiveWriter::Open(path, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(stream).ok());
    ASSERT_TRUE(writer.value()->Close().ok());
    full_bytes = writer.value()->segment_bytes();
    full_blocks = writer.value()->num_blocks();
  }
  // Tear the file mid-way through the last block.
  std::filesystem::resize_file(path, full_bytes - 20);

  auto recovered = ArchiveWriter::Open(path, options);
  ASSERT_TRUE(recovered.ok());
  ArchiveWriter& w = *recovered.value();
  EXPECT_EQ(w.num_blocks(), full_blocks - 1);
  EXPECT_GT(w.recovery().truncated_bytes, 0u);
  // At most one block of events was lost.
  EXPECT_GE(w.recovery().recovered_events,
            stream.size() - options.block_events);

  // Appending after recovery works, and the result validates end to end.
  const std::size_t lost = stream.size() -
                           static_cast<std::size_t>(w.events_written());
  EventStream tail(stream.end() - static_cast<std::ptrdiff_t>(lost),
                   stream.end());
  ASSERT_TRUE(w.Append(tail).ok());
  ASSERT_TRUE(w.Close().ok());

  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader.value().index_rebuilt());
  EXPECT_EQ(reader.value().ScanAll().value(), stream);
}

TEST(ArchiveTest, ReaderRebuildsWhenIndexStaleOrMissing) {
  const std::string path = TempPath("stale.sparc");
  RemoveArchive(path);
  const EventStream stream = LongStream(10);
  ArchiveOptions options;
  options.block_events = 32;
  {
    auto writer = ArchiveWriter::Open(path, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(stream).ok());
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  {
    // Append without Close: sealed blocks land, the sidecar goes stale —
    // exactly the crash-before-Close shape.
    auto writer = ArchiveWriter::Open(path, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(stream).ok());
    ASSERT_TRUE(writer.value()->Flush().ok());
  }
  auto stale = ArchiveReader::Open(path);
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale.value().index_rebuilt());
  EXPECT_EQ(stale.value().num_events(), 2 * stream.size());

  std::filesystem::remove(IndexPathFor(path));
  auto missing = ArchiveReader::Open(path);
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing.value().index_rebuilt());
  EventStream expected = stream;
  expected.insert(expected.end(), stream.begin(), stream.end());
  EXPECT_EQ(missing.value().ScanAll().value(), expected);

  // A sidecar path that is not a readable file is as good as missing.
  std::filesystem::create_directory(IndexPathFor(path));
  auto unreadable = ArchiveReader::Open(path);
  std::filesystem::remove(IndexPathFor(path));
  ASSERT_TRUE(unreadable.ok());
  EXPECT_TRUE(unreadable.value().index_rebuilt());
  EXPECT_EQ(unreadable.value().ScanAll().value(), expected);
}

TEST(ArchiveTest, CorruptBlockPayloadIsDetected) {
  const std::string path = TempPath("bitrot.sparc");
  RemoveArchive(path);
  const EventStream stream = LongStream(40);
  ArchiveOptions options;
  options.block_events = 32;
  auto writer = ArchiveWriter::Open(path, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Append(stream).ok());
  ASSERT_TRUE(writer.value()->Close().ok());
  const BlockMeta middle =
      writer.value()->num_blocks() > 2
          ? ArchiveReader::Open(path).value().blocks()[2]
          : BlockMeta{};
  ASSERT_GT(middle.offset, 0u);

  // Flip one payload byte of a middle block.
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    const std::streamoff payload_start =
        static_cast<std::streamoff>(middle.offset) +
        static_cast<std::streamoff>(kBlockHeaderBytesV2);
    file.seekp(payload_start);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(payload_start);
    byte = static_cast<char>(byte ^ 0xff);
    file.write(&byte, 1);
  }
  // The sidecar still matches the file size, so Open succeeds; the scan
  // hits the checksum.
  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  auto scanned = reader.value().ScanAll();
  ASSERT_FALSE(scanned.ok());
  EXPECT_EQ(scanned.status().code(), StatusCode::kCorruption);

  // Writer recovery truncates at the corrupt block.
  auto recovered = ArchiveWriter::Open(path, options);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value()->num_blocks(), 2u);
  EXPECT_GT(recovered.value()->recovery().truncated_bytes, 0u);
}

/// Writes `stream` in 32-event bitpack blocks (the scan-optimized codec the
/// corruption-injection tests below should cover) and returns the sealed
/// block directory (via a fresh reader).
std::vector<BlockMeta> WriteStandardSegment(const std::string& path,
                                            const EventStream& stream) {
  ArchiveOptions options;
  options.block_events = 32;
  options.codec = BlockCodec::kBitpack;
  auto writer = ArchiveWriter::Open(path, options);
  EXPECT_TRUE(writer.ok());
  EXPECT_TRUE(writer.value()->Append(stream).ok());
  EXPECT_TRUE(writer.value()->Close().ok());
  auto reader = ArchiveReader::Open(path);
  EXPECT_TRUE(reader.ok());
  return reader.value().blocks();
}

/// Overwrites 8 bytes at `field_offset` inside the v2 block header at
/// `block_offset` and re-stamps the header CRC, so only semantic validation
/// can reject the block.
void PatchHeaderField(const std::string& path, std::uint64_t block_offset,
                      std::size_t field_offset, std::uint64_t value) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.good());
  std::uint8_t header[kBlockHeaderBytesV2] = {};
  file.seekg(static_cast<std::streamoff>(block_offset));
  file.read(reinterpret_cast<char*>(header), sizeof(header));
  ASSERT_TRUE(file.good());
  std::vector<std::uint8_t> le;
  PutLE64(value, &le);
  std::memcpy(header + field_offset, le.data(), 8);
  le.clear();
  PutLE32(Crc32(header, kBlockHeaderBytesV2 - 4), &le);
  std::memcpy(header + kBlockHeaderBytesV2 - 4, le.data(), 4);
  file.seekp(static_cast<std::streamoff>(block_offset));
  file.write(reinterpret_cast<const char*>(header), sizeof(header));
  ASSERT_TRUE(file.good());
}

TEST(ArchiveTest, SentinelEpochHeaderIsTreatedAsTornTail) {
  const std::string path = TempPath("sentinel.sparc");
  RemoveArchive(path);
  const EventStream stream = LongStream(40);
  const std::vector<BlockMeta> blocks = WriteStandardSegment(path, stream);
  ASSERT_GT(blocks.size(), 3u);

  // Stamp kNeverEpoch into block 2's min-epoch field (header offset 8) with
  // a valid CRC — the shape a buggy writer would produce. The sentinel reads
  // back as a huge epoch, so if accepted it would defeat every range skip.
  PatchHeaderField(path, blocks[2].offset, 8,
                   static_cast<std::uint64_t>(kNeverEpoch));
  std::filesystem::remove(IndexPathFor(path));

  // The rebuild scan must stop at the poisoned block, not index it.
  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.value().index_rebuilt());
  EXPECT_EQ(reader.value().num_blocks(), 2u);
  EXPECT_TRUE(reader.value().ScanAll().ok());
}

TEST(ArchiveTest, HeaderEpochBoundsMustMatchDecodedEvents) {
  const std::string path = TempPath("bounds.sparc");
  RemoveArchive(path);
  const EventStream stream = LongStream(40);
  const std::vector<BlockMeta> blocks = WriteStandardSegment(path, stream);
  ASSERT_GT(blocks.size(), 3u);

  // A plausible-looking but wrong max epoch (header offset 16) would make
  // range scans skip blocks that actually hold matching events. The rebuild
  // scan cross-checks decoded bounds and truncates there.
  PatchHeaderField(path, blocks[1].offset, 16,
                   static_cast<std::uint64_t>(blocks[1].max_epoch + 1000));
  std::filesystem::remove(IndexPathFor(path));

  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value().num_blocks(), 1u);
}

TEST(ArchiveTest, IndexDetectsShrunkSegment) {
  const std::string path = TempPath("shrunk.sparc");
  RemoveArchive(path);
  const EventStream stream = LongStream(40);
  const std::vector<BlockMeta> blocks = WriteStandardSegment(path, stream);
  ASSERT_GT(blocks.size(), 2u);

  // Shrink the segment to an exact block boundary — every remaining byte is
  // valid, so only the sidecar's covered-bytes accounting can notice that
  // it describes blocks past the end of the file.
  std::filesystem::resize_file(path, blocks.back().offset);

  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.value().index_rebuilt());
  EXPECT_EQ(reader.value().num_blocks(), blocks.size() - 1);
  auto scanned = reader.value().ScanAll();
  ASSERT_TRUE(scanned.ok());
  // The surviving events are an exact prefix of the original stream.
  ASSERT_LT(scanned.value().size(), stream.size());
  EXPECT_TRUE(std::equal(scanned.value().begin(), scanned.value().end(),
                         stream.begin()));
}

TEST(ArchiveTest, IndexDetectsRewrittenTailOfSameSize) {
  const std::string path = TempPath("rewritten.sparc");
  RemoveArchive(path);
  const EventStream stream = LongStream(40);
  const std::vector<BlockMeta> blocks = WriteStandardSegment(path, stream);
  ASSERT_GT(blocks.size(), 2u);

  // Rewrite the last block header in place (valid CRC, same file size, max
  // epoch nudged): a size-only staleness check would trust the sidecar and
  // serve the old directory over different bytes. The sidecar's tail
  // fingerprint (CRC of the last covered block header) catches it.
  PatchHeaderField(path, blocks.back().offset, 16,
                   static_cast<std::uint64_t>(blocks.back().max_epoch + 1));

  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.value().index_rebuilt());
  // The rebuild scan then drops the tampered block (header bounds no longer
  // match the decoded events).
  EXPECT_EQ(reader.value().num_blocks(), blocks.size() - 1);
}

TEST(ArchiveTest, WriterDeletesSidecarWhileAppending) {
  const std::string path = TempPath("midappend.sparc");
  RemoveArchive(path);
  const EventStream stream = LongStream(10);
  WriteStandardSegment(path, stream);
  ASSERT_TRUE(std::filesystem::exists(IndexPathFor(path)));

  // Between Open and Close the on-disk sidecar describes a stale prefix —
  // and a crash here must not leave it behind for a reader to trust.
  ArchiveOptions options;
  options.block_events = 32;
  auto writer = ArchiveWriter::Open(path, options);
  ASSERT_TRUE(writer.ok());
  EXPECT_FALSE(std::filesystem::exists(IndexPathFor(path)));
  ASSERT_TRUE(writer.value()->Close().ok());
  EXPECT_TRUE(std::filesystem::exists(IndexPathFor(path)));
}

// ------------------------------------------------------- v1 compatibility --

TEST(ArchiveTest, WritesAndReadsV1Segments) {
  const std::string path = TempPath("v1.sparc");
  RemoveArchive(path);
  const EventStream stream = LongStream(10);

  ArchiveOptions options;
  options.block_events = 32;
  options.format_version = kArchiveVersionV1;
  options.codec = BlockCodec::kBitpack;  // Must be coerced: v1 is varint-only.
  {
    auto writer = ArchiveWriter::Open(path, options);
    ASSERT_TRUE(writer.ok());
    EXPECT_EQ(writer.value()->format_version(), kArchiveVersionV1);
    EXPECT_EQ(writer.value()->codec(), BlockCodec::kVarint);
    ASSERT_TRUE(writer.value()->Append(stream).ok());
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  {
    // The file header says version 1.
    std::ifstream in(path, std::ios::binary);
    std::uint8_t header[kArchiveHeaderBytes] = {};
    in.read(reinterpret_cast<char*>(header), sizeof(header));
    ASSERT_TRUE(in.good());
    EXPECT_EQ(GetLE16(header + 4), kArchiveVersionV1);
  }
  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value().format_version(), kArchiveVersionV1);
  EXPECT_FALSE(reader.value().index_rebuilt());
  for (const BlockMeta& block : reader.value().blocks()) {
    EXPECT_EQ(block.codec, BlockCodec::kVarint);
  }
  EXPECT_EQ(reader.value().ScanAll().value(), stream);

  // Appending to a v1 segment keeps it v1 (and varint) even when the
  // options ask for v2 bitpack.
  {
    ArchiveOptions v2_options;
    v2_options.codec = BlockCodec::kBitpack;
    auto writer = ArchiveWriter::Open(path, v2_options);
    ASSERT_TRUE(writer.ok());
    EXPECT_EQ(writer.value()->format_version(), kArchiveVersionV1);
    EXPECT_EQ(writer.value()->codec(), BlockCodec::kVarint);
    ASSERT_TRUE(writer.value()->Append(stream).ok());
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  auto reopened = ArchiveReader::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().num_events(), 2 * stream.size());
}

TEST(ArchiveTest, TranscodesV1ToV2Bitpack) {
  const std::string v1_path = TempPath("transcode_v1.sparc");
  const std::string v2_path = TempPath("transcode_v2.sparc");
  RemoveArchive(v1_path);
  RemoveArchive(v2_path);
  const EventStream stream = LongStream(20);

  ArchiveOptions v1_options;
  v1_options.block_events = 32;
  v1_options.format_version = kArchiveVersionV1;
  auto v1_writer = ArchiveWriter::Open(v1_path, v1_options);
  ASSERT_TRUE(v1_writer.ok());
  ASSERT_TRUE(v1_writer.value()->Append(stream).ok());
  ASSERT_TRUE(v1_writer.value()->Close().ok());

  // The compaction shape: decode the v1 segment, re-archive as v2 bitpack.
  auto v1_reader = ArchiveReader::Open(v1_path);
  ASSERT_TRUE(v1_reader.ok());
  auto events = v1_reader.value().ScanAll();
  ASSERT_TRUE(events.ok());
  ArchiveOptions v2_options;
  v2_options.block_events = 32;
  v2_options.codec = BlockCodec::kBitpack;
  auto v2_writer = ArchiveWriter::Open(v2_path, v2_options);
  ASSERT_TRUE(v2_writer.ok());
  ASSERT_TRUE(v2_writer.value()->Append(events.value()).ok());
  ASSERT_TRUE(v2_writer.value()->Close().ok());

  auto v2_reader = ArchiveReader::Open(v2_path);
  ASSERT_TRUE(v2_reader.ok());
  EXPECT_EQ(v2_reader.value().format_version(), kArchiveVersion);
  for (const BlockMeta& block : v2_reader.value().blocks()) {
    EXPECT_EQ(block.codec, BlockCodec::kBitpack);
  }
  EXPECT_EQ(v2_reader.value().ScanAll().value(), stream);
}

// --------------------------------------------------------- mmap vs buffered --

TEST(ArchiveTest, MmapAndBufferedScansAgree) {
  const std::string path = TempPath("mmap.sparc");
  RemoveArchive(path);
  const EventStream stream = LongStream(40);
  WriteStandardSegment(path, stream);

  ReaderOptions mapped_options;
  mapped_options.use_mmap = true;
  ReaderOptions buffered_options;
  buffered_options.use_mmap = false;
  auto mapped = ArchiveReader::Open(path, mapped_options);
  auto buffered = ArchiveReader::Open(path, buffered_options);
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(buffered.ok());
  EXPECT_TRUE(mapped.value().mapped());
  EXPECT_FALSE(buffered.value().mapped());

  const auto all_mapped = mapped.value().ScanAll();
  const auto all_buffered = buffered.value().ScanAll();
  ASSERT_TRUE(all_mapped.ok());
  ASSERT_TRUE(all_buffered.ok());
  EXPECT_EQ(all_mapped.value(), stream);
  EXPECT_EQ(all_mapped.value(), all_buffered.value());

  EXPECT_EQ(mapped.value().ScanRange(150, 430).value(),
            buffered.value().ScanRange(150, 430).value());
  EXPECT_EQ(mapped.value().ScanObject(kItem).value(),
            buffered.value().ScanObject(kItem).value());

  // The epoch column equals PrimaryEpoch mapped over the full scan, on
  // both paths.
  const auto epochs_mapped = mapped.value().ScanEpochColumn();
  const auto epochs_buffered = buffered.value().ScanEpochColumn();
  ASSERT_TRUE(epochs_mapped.ok());
  ASSERT_TRUE(epochs_buffered.ok());
  ASSERT_EQ(epochs_mapped.value().size(), stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(epochs_mapped.value()[i], PrimaryEpoch(stream[i]));
  }
  EXPECT_EQ(epochs_mapped.value(), epochs_buffered.value());
}

TEST(ArchiveTest, RejectsGarbageFiles) {
  EXPECT_FALSE(ArchiveReader::Open("/nonexistent/nowhere.sparc").ok());
  const std::string path = TempPath("garbage.sparc");
  RemoveArchive(path);
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not an archive";
  }
  EXPECT_FALSE(ArchiveReader::Open(path).ok());
  EXPECT_FALSE(ArchiveWriter::Open(path).ok());
}

TEST(ArchiveTest, RepairedRestrictedStreamIsWellFormed) {
  const std::string path = TempPath("repair.sparc");
  RemoveArchive(path);
  const EventStream stream = LongStream(40);
  ArchiveOptions options;
  options.block_events = 32;
  auto writer = ArchiveWriter::Open(path, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Append(stream).ok());
  ASSERT_TRUE(writer.value()->Close().ok());

  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  auto ranged = reader.value().ScanRange(135, 460);
  ASSERT_TRUE(ranged.ok());
  // The raw selection opens with unmatched End messages...
  EXPECT_FALSE(
      ValidateWellFormed(ranged.value(), /*allow_open_at_end=*/true).ok());
  // ...and the repair re-materializes their Starts.
  EXPECT_TRUE(ValidateWellFormed(RepairRestrictedStream(ranged.value()),
                                 /*allow_open_at_end=*/true)
                  .ok());
}

// -------------------------------------------------------------- end to end --

/// Runs the pipeline over a simulated trace with the archive attached as a
/// sink, returning the in-memory output stream.
EventStream RunPipelineWithArchive(const SimConfig& config,
                                   CompressionLevel level,
                                   ArchiveWriter* archive) {
  auto sim = WarehouseSimulator::Create(config);
  EXPECT_TRUE(sim.ok());
  WarehouseSimulator& s = *sim.value();
  PipelineOptions options;
  options.level = level;
  SpirePipeline pipeline(&s.registry(), options);
  pipeline.SetArchiveSink(archive);
  EventStream events;
  while (!s.Done()) {
    EpochReadings readings = s.Step();
    pipeline.ProcessEpoch(s.current_epoch(), std::move(readings), &events);
  }
  pipeline.Finish(s.current_epoch() + 1, &events);
  EXPECT_TRUE(pipeline.archive_status().ok())
      << pipeline.archive_status().ToString();
  return events;
}

TEST(ArchiveEndToEndTest, SimulatorScenariosRoundTripLossless) {
  SimConfig small;
  small.duration_epochs = 900;
  small.pallet_interval = 300;
  small.min_cases_per_pallet = 2;
  small.max_cases_per_pallet = 3;
  small.items_per_case = 4;
  small.mean_shelf_stay = 300;
  small.shelf_period = 20;
  small.read_rate = 0.9;

  SimConfig lossy = small;
  lossy.read_rate = 0.6;

  int scenario = 0;
  for (const SimConfig& config : {small, lossy}) {
    for (CompressionLevel level :
         {CompressionLevel::kLevel1, CompressionLevel::kLevel2}) {
      const std::string path =
          TempPath("e2e_" + std::to_string(scenario) + ".sparc");
      RemoveArchive(path);
      ArchiveOptions options;
      options.block_events = 256;
      // Alternate codecs so the end-to-end scenarios cover both.
      options.codec = scenario % 2 == 0 ? BlockCodec::kVarint
                                        : BlockCodec::kBitpack;
      ++scenario;
      auto writer = ArchiveWriter::Open(path, options);
      ASSERT_TRUE(writer.ok());
      EventStream events =
          RunPipelineWithArchive(config, level, writer.value().get());
      ASSERT_TRUE(writer.value()->Close().ok());

      auto reader = ArchiveReader::Open(path);
      ASSERT_TRUE(reader.ok());
      auto scanned = reader.value().ScanAll();
      ASSERT_TRUE(scanned.ok());
      EXPECT_EQ(scanned.value(), events);  // Lossless round trip.

      // Time-range scan == filtered full decode, on a middle window.
      const Epoch lo = 300;
      const Epoch hi = 500;
      auto ranged = reader.value().ScanRange(lo, hi);
      ASSERT_TRUE(ranged.ok());
      EXPECT_EQ(ranged.value(), FilterByPrimary(events, lo, hi));
    }
  }
}

TEST(ArchiveEndToEndTest, ArchiveIsSmallerThanFlatRecords) {
  SimConfig config;
  config.duration_epochs = 900;
  config.pallet_interval = 300;
  config.items_per_case = 4;
  config.mean_shelf_stay = 300;
  config.shelf_period = 20;
  config.read_rate = 0.9;

  const std::string path = TempPath("size.sparc");
  RemoveArchive(path);
  auto writer = ArchiveWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  EventStream events = RunPipelineWithArchive(
      config, CompressionLevel::kLevel2, writer.value().get());
  ASSERT_TRUE(writer.value()->Close().ok());
  ASSERT_GT(events.size(), 100u);

  // The acceptance target: at most half of the flat 26-byte records.
  EXPECT_LE(writer.value()->segment_bytes(),
            events.size() * kEventWireBytes / 2);
}

}  // namespace
}  // namespace spire
