#include "store/block.h"

#include <limits>
#include <span>

#include "store/bitpack.h"
#include "store/varint.h"

namespace spire {

/// Archive-representability check; mirrors EventEncoder's validation but
/// without the flat format's 32-bit timestamp ceiling.
Status ValidateArchivable(const Event& event) {
  const Epoch primary = PrimaryEpoch(event);
  if (primary < 0) {
    return Status::InvalidArgument("negative event timestamp: " +
                                   event.ToString());
  }
  switch (event.type) {
    case EventType::kStartLocation:
    case EventType::kStartContainment:
      if (event.end != kInfiniteEpoch) {
        return Status::InvalidArgument("Start event with a closed interval: " +
                                       event.ToString());
      }
      break;
    case EventType::kEndLocation:
    case EventType::kEndContainment:
      if (event.start < 0 || event.end < event.start) {
        return Status::InvalidArgument(
            "End event without a reconstructed interval: " + event.ToString());
      }
      break;
    case EventType::kMissing:
      if (event.start != event.end) {
        return Status::InvalidArgument("Missing event is not a point: " +
                                       event.ToString());
      }
      break;
    default:
      return Status::InvalidArgument("unknown event type");
  }
  return Status::OK();
}

namespace {

inline bool IsEndType(EventType type) {
  return type == EventType::kEndLocation || type == EventType::kEndContainment;
}

/// The numeric columns of one block as flat zigzag-delta (and, for
/// durations, plain) u64 arrays — the codec-independent intermediate both
/// payload layouts serialize.
struct Columns {
  std::vector<std::uint64_t> objects;    // zigzag deltas
  std::vector<std::uint64_t> targets;    // zigzag deltas, two chains
  std::vector<std::uint64_t> epochs;     // zigzag deltas
  std::vector<std::uint64_t> durations;  // plain, one per End event
};

/// Wraparound-safe delta: the decoder adds the zigzag delta back modulo
/// 2^64, so id spaces near the top of the range (kNoObject) are fine.
inline std::uint64_t NextDelta(std::uint64_t value, std::uint64_t* prev) {
  const std::uint64_t delta =
      ZigzagEncode(static_cast<std::int64_t>(value - *prev));
  *prev = value;
  return delta;
}

Columns BuildColumns(const EventStream& events, std::size_t first,
                     std::size_t count) {
  Columns columns;
  columns.objects.reserve(count);
  columns.targets.reserve(count);
  columns.epochs.reserve(count);
  std::uint64_t prev_object = 0;
  std::uint64_t prev_container = 0;
  std::uint64_t prev_location = 0;
  std::uint64_t prev_epoch = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Event& event = events[first + i];
    columns.objects.push_back(NextDelta(event.object, &prev_object));
    if (IsContainmentEvent(event.type)) {
      columns.targets.push_back(NextDelta(event.container, &prev_container));
    } else {
      columns.targets.push_back(NextDelta(event.location, &prev_location));
    }
    columns.epochs.push_back(NextDelta(
        static_cast<std::uint64_t>(PrimaryEpoch(event)), &prev_epoch));
    if (IsEndType(event.type)) {
      // V_e - V_s >= 0 by validation.
      columns.durations.push_back(
          static_cast<std::uint64_t>(event.end - event.start));
    }
  }
  return columns;
}

/// Varint column reader over TryGetVarint64. A failed Next leaves
/// `offset` at the bad varint, where Error() re-runs GetVarint64.
struct VarintColumns {
  const std::uint8_t* in;
  std::size_t size;
  std::size_t offset;

  Status Begin(std::size_t /*n*/) { return Status::OK(); }

  bool Next(std::uint64_t* value) {
    return TryGetVarint64(in, size, &offset, value);
  }

  Status Error() { return GetVarint64(in, size, &offset).status(); }

  Status Finish() const {
    if (offset != size) {
      return Status::Corruption("trailing bytes after the block columns");
    }
    return Status::OK();
  }
};

/// Bitpack column reader: Begin unpacks the next column, with every check
/// UnpackColumn makes, into one scratch buffer the four columns share.
struct BitpackColumns {
  const std::uint8_t* in;
  std::size_t size;
  std::size_t offset;
  std::vector<std::uint64_t> column = {};
  std::size_t next = 0;

  Status Begin(std::size_t n) {
    column.resize(n);
    next = 0;
    return UnpackColumn(in, size, &offset, n, column.data());
  }

  bool Next(std::uint64_t* value) {
    *value = column[next++];
    return true;
  }

  // Unreachable: Begin has already checked the whole column.
  Status Error() const { return Status::Corruption("bitpack column overrun"); }

  Status Finish() const {
    if (offset + kBitpackPadBytes != size) {
      return Status::Corruption("trailing bytes after the block columns");
    }
    for (std::size_t i = offset; i < size; ++i) {
      if (in[i] != 0) return Status::Corruption("nonzero bitpack payload pad");
    }
    return Status::OK();
  }
};

/// Decodes the type bytes, then each numeric column in one pass, straight
/// into `events`, checking every value as it lands. An End event holds its
/// primary epoch in `end` until the duration column supplies `start`.
template <typename Columns>
Status DecodeColumns(const std::uint8_t* types, Columns& columns,
                     std::span<Event> events) {
  std::size_t num_ends = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (types[i] > static_cast<std::uint8_t>(EventType::kMissing)) {
      return Status::Corruption("unknown event type byte in block");
    }
    events[i].type = static_cast<EventType>(types[i]);
    if (IsEndType(events[i].type)) ++num_ends;
  }

  std::uint64_t delta = 0;
  SPIRE_RETURN_NOT_OK(columns.Begin(events.size()));
  std::uint64_t prev_object = 0;
  for (Event& event : events) {
    if (!columns.Next(&delta)) return columns.Error();
    prev_object += static_cast<std::uint64_t>(ZigzagDecode(delta));
    event.object = prev_object;
  }

  // Targets interleave two delta chains: container ids for containment
  // events, location ids otherwise.
  SPIRE_RETURN_NOT_OK(columns.Begin(events.size()));
  std::uint64_t prev_container = 0;
  std::uint64_t prev_location = 0;
  for (Event& event : events) {
    if (!columns.Next(&delta)) return columns.Error();
    if (IsContainmentEvent(event.type)) {
      prev_container += static_cast<std::uint64_t>(ZigzagDecode(delta));
      event.container = prev_container;
    } else {
      prev_location += static_cast<std::uint64_t>(ZigzagDecode(delta));
      if (prev_location > std::numeric_limits<LocationId>::max()) {
        return Status::Corruption("location id out of range in block");
      }
      event.location = static_cast<LocationId>(prev_location);
    }
  }

  SPIRE_RETURN_NOT_OK(columns.Begin(events.size()));
  std::uint64_t prev_epoch = 0;
  for (Event& event : events) {
    if (!columns.Next(&delta)) return columns.Error();
    prev_epoch += static_cast<std::uint64_t>(ZigzagDecode(delta));
    const Epoch primary = static_cast<Epoch>(prev_epoch);
    if (primary < 0) {
      return Status::Corruption("negative event timestamp in block");
    }
    const bool open = event.type == EventType::kStartLocation ||
                      event.type == EventType::kStartContainment;
    event.start = primary;
    event.end = open ? kInfiniteEpoch : primary;
  }

  SPIRE_RETURN_NOT_OK(columns.Begin(num_ends));
  for (Event& event : events) {
    if (!IsEndType(event.type)) continue;
    if (!columns.Next(&delta)) return columns.Error();
    event.start =
        static_cast<Epoch>(static_cast<std::uint64_t>(event.end) - delta);
    if (event.start < 0 || event.start > event.end) {
      return Status::Corruption("End event duration out of range in block");
    }
  }
  return columns.Finish();
}

}  // namespace

Result<EncodedBlock> EncodeBlock(const EventStream& events, std::size_t first,
                                 std::size_t count, BlockCodec codec) {
  if (first + count > events.size()) {
    return Status::InvalidArgument("block range exceeds the stream");
  }
  if (count == 0 ||
      count > std::numeric_limits<std::uint32_t>::max()) {
    return Status::InvalidArgument("block event count out of range");
  }
  EncodedBlock block;
  block.count = static_cast<std::uint32_t>(count);
  block.codec = codec;

  // Types column (plus validation and the epoch bounds).
  for (std::size_t i = 0; i < count; ++i) {
    const Event& event = events[first + i];
    SPIRE_RETURN_NOT_OK(ValidateArchivable(event));
    const Epoch primary = PrimaryEpoch(event);
    if (block.min_epoch == kNeverEpoch || primary < block.min_epoch) {
      block.min_epoch = primary;
    }
    if (block.max_epoch == kNeverEpoch || primary > block.max_epoch) {
      block.max_epoch = primary;
    }
    block.payload.push_back(static_cast<std::uint8_t>(event.type));
  }

  const Columns columns = BuildColumns(events, first, count);
  for (const auto* column : {&columns.objects, &columns.targets,
                             &columns.epochs, &columns.durations}) {
    if (codec == BlockCodec::kVarint) {
      for (std::uint64_t value : *column) PutVarint64(value, &block.payload);
    } else if (codec == BlockCodec::kBitpack) {
      PackColumn(column->data(), column->size(), &block.payload);
    }
  }
  if (codec == BlockCodec::kBitpack) {
    block.payload.insert(block.payload.end(), kBitpackPadBytes, 0);
  }
  return block;
}

Status DecodeBlock(const std::uint8_t* payload, std::size_t payload_size,
                   std::uint32_t count, BlockCodec codec, EventStream* out) {
  if (payload_size < count) {
    return Status::Corruption("block payload shorter than its type column");
  }
  const std::size_t base = out->size();
  out->resize(base + count);
  const std::span<Event> events(out->data() + base, count);
  Status status = Status::Corruption("unknown block codec");
  if (codec == BlockCodec::kVarint) {
    VarintColumns columns{payload, payload_size, count};
    status = DecodeColumns(payload, columns, events);
  } else if (codec == BlockCodec::kBitpack) {
    BitpackColumns columns{payload, payload_size, count};
    status = DecodeColumns(payload, columns, events);
  }
  if (!status.ok()) out->resize(base);
  return status;
}

Status DecodeBlockEpochs(const std::uint8_t* payload,
                         std::size_t payload_size, std::uint32_t count,
                         BlockCodec codec, std::vector<Epoch>* out) {
  if (payload_size < count) {
    return Status::Corruption("block payload shorter than its type column");
  }
  std::size_t offset = count;  // Types carry no epoch data; jump them.
  // Unpack the zigzag deltas straight into the output tail and transform
  // them in place (Epoch and uint64_t share size, and signed/unsigned
  // aliasing of the same width is well-defined), so the hot path pays no
  // per-block scratch allocation or copy pass.
  const std::size_t base = out->size();
  out->resize(base + count);
  auto* deltas = reinterpret_cast<std::uint64_t*>(out->data() + base);
  switch (codec) {
    case BlockCodec::kVarint:
      // Varint columns have no skip structure: reaching the epoch column
      // means walking every object/target byte's continuation bit.
      for (std::uint32_t i = 0; i < 2 * count; ++i) {
        SPIRE_RETURN_NOT_OK(SkipVarint64(payload, payload_size, &offset));
      }
      for (std::uint32_t i = 0; i < count; ++i) {
        auto value = GetVarint64(payload, payload_size, &offset);
        if (!value.ok()) return value.status();
        deltas[i] = value.value();
      }
      break;
    case BlockCodec::kBitpack:
      SPIRE_RETURN_NOT_OK(SkipColumn(payload, payload_size, &offset, count));
      SPIRE_RETURN_NOT_OK(SkipColumn(payload, payload_size, &offset, count));
      SPIRE_RETURN_NOT_OK(
          UnpackColumn(payload, payload_size, &offset, count, deltas));
      break;
    default:
      return Status::Corruption("unknown block codec");
  }
  std::uint64_t prev = 0;
  std::uint64_t sign = 0;  // Accumulated sign bits: branch-free range check.
  for (std::uint32_t i = 0; i < count; ++i) {
    prev += static_cast<std::uint64_t>(ZigzagDecode(deltas[i]));
    sign |= prev;
    deltas[i] = prev;
  }
  if ((sign >> 63) != 0) {
    return Status::Corruption("negative event timestamp in block");
  }
  return Status::OK();
}

}  // namespace spire
