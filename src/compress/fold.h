// Folding a message stream into ranged events.
#pragma once

#include <vector>

#include "compress/event.h"

namespace spire {

/// A Start/End pair folded into one interval (or a Missing point event).
struct RangedEvent {
  /// kStartLocation, kStartContainment, or kMissing.
  EventType type = EventType::kStartLocation;
  ObjectId object = kNoObject;
  LocationId location = kUnknownLocation;
  ObjectId container = kNoObject;
  Epoch start = kNeverEpoch;
  Epoch end = kInfiniteEpoch;

  bool operator==(const RangedEvent&) const = default;
};

/// Folds a message stream into ranged events, ordered by (object, start,
/// type). A Start (re)opens the interval of its (object, kind) key; an End
/// closes the key's open interval and is ignored when none is open;
/// unclosed trailing events keep end = infinity. A first pass counts the
/// Starts; the fold pass then keeps an open-addressed table from (object,
/// kind) to the open interval, sized from that count (O(n) expected time,
/// O(s) extra memory for s Starts); an O(m log m) sort of the m folded
/// events ends it. The output equals, element for element and ties
/// included, the fold with an ordered map keyed by (object, kind) that
/// tests/eval_test.cc keeps as its reference.
std::vector<RangedEvent> FoldEvents(const EventStream& stream);

}  // namespace spire
