// Column-wise codecs for one archive block.
//
// A block is self-contained: End* events store their reconstructed V_s as a
// duration column, so any block decodes to exact Event values without the
// cross-record open-event state the flat SPEV stream needs. That is what
// makes per-block access paths (time-range and per-object scans) possible.
//
// Both codecs share the column model — all columns back to back:
//
//   types      one byte per event (EventType)
//   objects    zigzag delta vs the previous event's object id
//   targets    zigzag delta; containment events delta against the
//              previous container id, location events against the previous
//              location id (two independent chains, interleaved in event
//              order), since the two id spaces have very different scales
//   epochs     zigzag delta of the primary timestamp
//   durations  for End* events only, (V_e - V_s), one entry per End event
//
// Codec 0 (kVarint) writes each numeric column as LEB128 varints — compact,
// but decode is a data-dependent branch per byte. Codec 1 (kBitpack) writes
// each numeric column as 128-value bit-packed miniblocks (store/bitpack.h)
// and appends kBitpackPadBytes zero bytes, decoded by branch-free word
// loads; its column framing is also skippable, so the epoch column can be
// decoded without touching the object/target columns at all
// (DecodeBlockEpochs).
//
// DecodeBlock makes one pass per column straight into the output events,
// with no intermediate column vectors: the type bytes land first, then each
// numeric column is prefix-summed into its Event field and checked as it
// lands. An End event keeps its primary epoch in `end` until the duration
// column supplies its start. Varints are read without per-byte bounds
// checks while a whole 10-byte encoding still fits before the payload end,
// and through GetVarint64 near it; bitpack columns unpack into one reused
// scratch buffer and then take the same per-event pass.
//
// Decoders take (pointer, size) rather than a vector so they can run
// zero-copy over an mmapped segment. Every malformed byte sequence —
// including non-canonical varints, non-minimal bit widths, and nonzero pad
// bytes — yields a descriptive Corruption status.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "compress/event.h"
#include "store/format.h"

namespace spire {

/// Result of encoding one block.
struct EncodedBlock {
  std::vector<std::uint8_t> payload;
  std::uint32_t count = 0;
  BlockCodec codec = BlockCodec::kVarint;
  Epoch min_epoch = kNeverEpoch;
  Epoch max_epoch = kNeverEpoch;
};

/// Checks that one event is representable in a block: rejects a Start* with
/// a finite end, an End* with end < start or an unreconstructed (negative)
/// start, a Missing whose interval is not a point, and any negative primary
/// timestamp.
Status ValidateArchivable(const Event& event);

/// Encodes `events[first, first+count)` column-wise with `codec`; every
/// event must pass ValidateArchivable.
Result<EncodedBlock> EncodeBlock(const EventStream& events, std::size_t first,
                                 std::size_t count,
                                 BlockCodec codec = BlockCodec::kVarint);

/// Decodes a payload produced by EncodeBlock back into exactly `count`
/// events appended to `out`. On failure `out` keeps its size before the
/// call.
Status DecodeBlock(const std::uint8_t* payload, std::size_t payload_size,
                   std::uint32_t count, BlockCodec codec, EventStream* out);

inline Status DecodeBlock(const std::vector<std::uint8_t>& payload,
                          std::uint32_t count, EventStream* out,
                          BlockCodec codec = BlockCodec::kVarint) {
  return DecodeBlock(payload.data(), payload.size(), count, codec, out);
}

/// Decodes only the primary-timestamp column, appending `count` epochs to
/// `out` — the scan-rate workhorse for epoch-restricted analytics. For
/// kBitpack the object/target columns are skipped structurally (one width
/// byte per 128 values); for kVarint they must still be walked byte by
/// byte, which is exactly the asymmetry bench/expt9_archive measures.
Status DecodeBlockEpochs(const std::uint8_t* payload,
                         std::size_t payload_size, std::uint32_t count,
                         BlockCodec codec, std::vector<Epoch>* out);

}  // namespace spire
