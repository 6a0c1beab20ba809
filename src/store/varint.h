// LEB128 varint and zigzag coding for the archive block codec.
//
// The archive encodes event columns as deltas: epochs are near-sorted and
// object ids cluster by packaging level, so successive differences are small
// and a 64-bit value usually fits in one or two bytes (the Sparkey /
// Simple8b-style integer-coding idiom). Deltas can be negative, so signed
// values ride through the zigzag map first.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace spire {

/// Maximum encoded size of one 64-bit varint.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Appends `value` as a little-endian base-128 varint.
inline void PutVarint64(std::uint64_t value, std::vector<std::uint8_t>* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<std::uint8_t>(value));
}

/// Decodes one varint from `in[*offset, size)`, advancing `*offset` past the
/// encoding. Strict: every decodable byte sequence is the unique encoding
/// PutVarint64 produces. Fails on
///   - truncation or an encoding longer than 10 bytes;
///   - a 10th byte carrying bits beyond bit 63 (the 9 prior bytes supply 63
///     bits, so only its lowest bit is payload — anything else would be
///     silently shifted out);
///   - non-canonical padding (a trailing 0x00 continuation target, e.g.
///     0x80 0x00 for zero): the final byte of a multi-byte encoding must be
///     nonzero, or a shorter encoding of the same value exists.
inline Result<std::uint64_t> GetVarint64(const std::uint8_t* in,
                                         std::size_t size,
                                         std::size_t* offset) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
    if (*offset >= size) {
      return Status::Corruption("truncated varint");
    }
    const std::uint8_t byte = in[(*offset)++];
    if (i == kMaxVarintBytes - 1 && byte > 1) {
      return Status::Corruption("varint overflows 64 bits");
    }
    value |= static_cast<std::uint64_t>(byte & 0x7f) << (7 * i);
    if ((byte & 0x80) == 0) {
      if (byte == 0 && i > 0) {
        return Status::Corruption("non-canonical varint padding");
      }
      return value;
    }
  }
  return Status::Corruption("varint longer than 10 bytes");
}

inline Result<std::uint64_t> GetVarint64(const std::vector<std::uint8_t>& in,
                                         std::size_t* offset) {
  return GetVarint64(in.data(), in.size(), offset);
}

/// GetVarint64 for hot loops: accepts exactly the encodings GetVarint64
/// accepts, and returns false where it would fail, leaving `*offset` at the
/// bad varint so the caller can re-run GetVarint64 there for the message.
/// Reads without per-byte bounds checks while a 10-byte encoding still fits
/// before `size`, and through GetVarint64 near the end.
inline bool TryGetVarint64(const std::uint8_t* in, std::size_t size,
                           std::size_t* offset, std::uint64_t* value) {
  // A local, not *offset: stores through `value` may alias it.
  const std::size_t at = *offset;
  if (size - at < kMaxVarintBytes) {
    std::size_t end = at;
    auto decoded = GetVarint64(in, size, &end);
    if (!decoded.ok()) return false;
    *value = decoded.value();
    *offset = end;
    return true;
  }
  std::uint64_t result = in[at];
  if (result < 0x80) {
    *value = result;
    *offset = at + 1;
    return true;
  }
  result &= 0x7f;
  for (std::size_t i = 1; i < kMaxVarintBytes; ++i) {
    const std::uint64_t byte = in[at + i];
    result |= (byte & 0x7f) << (7 * i);
    if (byte >= 0x80) continue;
    // GetVarint64's rules: no zero final byte; a 10th byte holds bit 63.
    if (byte == 0 || (i == kMaxVarintBytes - 1 && byte > 1)) return false;
    *value = result;
    *offset = at + i + 1;
    return true;
  }
  return false;
}

/// Advances `*offset` past one varint without decoding it (column skip);
/// applies the same length bound, but not the canonicality checks — the
/// full-decode path is the validator.
inline Status SkipVarint64(const std::uint8_t* in, std::size_t size,
                           std::size_t* offset) {
  for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
    if (*offset >= size) return Status::Corruption("truncated varint");
    if ((in[(*offset)++] & 0x80) == 0) return Status::OK();
  }
  return Status::Corruption("varint longer than 10 bytes");
}

/// Maps signed to unsigned so small-magnitude values (either sign) encode
/// short: 0,-1,1,-2,... -> 0,1,2,3,...
inline std::uint64_t ZigzagEncode(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

/// Inverse of ZigzagEncode.
inline std::int64_t ZigzagDecode(std::uint64_t value) {
  return static_cast<std::int64_t>(value >> 1) ^
         -static_cast<std::int64_t>(value & 1);
}

}  // namespace spire
