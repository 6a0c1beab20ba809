#include "compress/fold.h"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace spire {

namespace {

/// The latest interval one (object, kind) key opened: folded[index], open
/// until an End of the key closes it.
struct KeySlot {
  ObjectId object = 0;
  std::uint64_t index : 61 = 0;
  std::uint64_t used : 1 = 0;
  std::uint64_t containment : 1 = 0;
  std::uint64_t open : 1 = 0;
};

bool IsStartEvent(EventType type) {
  return type == EventType::kStartLocation ||
         type == EventType::kStartContainment;
}

}  // namespace

std::vector<RangedEvent> FoldEvents(const EventStream& stream) {
  std::size_t starts = 0;
  std::size_t missing = 0;
  for (const Event& event : stream) {
    starts += IsStartEvent(event.type) ? 1 : 0;
    missing += event.type == EventType::kMissing ? 1 : 0;
  }
  // Open addressing with linear probing, never more than half full: every
  // key is some Start's. A slot is never freed; an End clears `open`, and
  // the key's next Start reuses the slot.
  std::vector<KeySlot> slots(std::bit_ceil(2 * starts + 1));
  const std::size_t mask = slots.size() - 1;
  auto slot_of = [&](const Event& event) -> KeySlot& {
    const bool containment = IsContainmentEvent(event.type);
    std::size_t i = ObjectKeyHash(event.object, containment) & mask;
    while (slots[i].used && (slots[i].object != event.object ||
                             slots[i].containment != containment)) {
      i = (i + 1) & mask;
    }
    return slots[i];
  };

  std::vector<RangedEvent> folded;
  folded.reserve(starts + missing);
  for (const Event& event : stream) {
    switch (event.type) {
      case EventType::kStartLocation:
      case EventType::kStartContainment: {
        RangedEvent ranged;
        ranged.type = event.type;
        ranged.object = event.object;
        ranged.location = event.location;
        ranged.container = event.container;
        ranged.start = event.start;
        ranged.end = kInfiniteEpoch;
        KeySlot& slot = slot_of(event);
        slot.object = event.object;
        slot.index = folded.size();
        slot.used = 1;
        slot.containment = IsContainmentEvent(event.type) ? 1 : 0;
        slot.open = 1;
        folded.push_back(ranged);
        break;
      }
      case EventType::kEndLocation:
      case EventType::kEndContainment: {
        KeySlot& slot = slot_of(event);
        if (slot.used && slot.open) {
          folded[slot.index].end = event.end;
          slot.open = 0;
        }
        break;
      }
      case EventType::kMissing: {
        RangedEvent ranged;
        ranged.type = EventType::kMissing;
        ranged.object = event.object;
        ranged.location = event.location;
        ranged.start = event.start;
        ranged.end = event.end;
        folded.push_back(ranged);
        break;
      }
    }
  }
  std::sort(folded.begin(), folded.end(),
            [](const RangedEvent& a, const RangedEvent& b) {
              if (a.object != b.object) return a.object < b.object;
              if (a.start != b.start) return a.start < b.start;
              return a.type < b.type;
            });
  return folded;
}

}  // namespace spire
