// Fundamental identifier and time types shared by every SPIRE module.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

namespace spire {

/// A 64-bit object identifier. In SPIRE an ObjectId is the compact form of an
/// EPC tag id (see common/epc.h); the packaging level is recoverable from it.
using ObjectId = std::uint64_t;

/// Sentinel meaning "no object" (e.g. an object without a container).
inline constexpr ObjectId kNoObject = std::numeric_limits<ObjectId>::max();

/// Hash of an object id for open-addressed tables. Fibonacci hashing: EPC
/// serials differ in the low bits, which the multiply spreads into the high
/// half. One id can key two kinds of entry (a pallet is both an object and
/// a container); complementing the `second_kind` keys keeps them apart.
inline std::size_t ObjectKeyHash(ObjectId id, bool second_kind) {
  const std::uint64_t bits = second_kind ? ~id : id;
  return static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ull) >> 32);
}

/// Identifier of a fixed, pre-defined location (aisle, belt, shelf, door...).
/// Location ids are small dense integers assigned by the warehouse layout.
using LocationId = std::uint16_t;

/// The special "unknown" location of Section II: an object is in the unknown
/// location when it is in transit between locations or has improperly left
/// the physical world (e.g. was stolen).
inline constexpr LocationId kUnknownLocation =
    std::numeric_limits<LocationId>::max();

/// Identifier of a physical RFID reader.
using ReaderId = std::uint16_t;

/// Sentinel meaning "no reader".
inline constexpr ReaderId kNoReader = std::numeric_limits<ReaderId>::max();

/// Discrete time. SPIRE divides time into fixed-length epochs (1 second in
/// the paper's evaluation); an Epoch is the index of one such interval.
using Epoch = std::int64_t;

/// Sentinel for "never" / "not yet".
inline constexpr Epoch kNeverEpoch = -1;

/// Sentinel for an open-ended validity interval (V_e = infinity).
inline constexpr Epoch kInfiniteEpoch = std::numeric_limits<Epoch>::max();

/// EPC packaging levels mandated by the EPCglobal tag data standard: every
/// tagged object is an item, a case, or a pallet, and the level is encoded
/// in the tag id. The graph model uses the level as the node's layer.
enum class PackagingLevel : std::uint8_t {
  kItem = 0,
  kCase = 1,
  kPallet = 2,
};

/// Number of distinct packaging levels.
inline constexpr int kNumPackagingLevels = 3;

/// Human-readable name of a packaging level.
inline const char* ToString(PackagingLevel level) {
  switch (level) {
    case PackagingLevel::kItem:
      return "item";
    case PackagingLevel::kCase:
      return "case";
    case PackagingLevel::kPallet:
      return "pallet";
  }
  return "invalid";
}

}  // namespace spire
