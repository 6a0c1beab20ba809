#include "query/segment_log.h"

#include <algorithm>
#include <optional>
#include <span>

#include "compress/fold.h"
#include "obs/registry.h"

namespace spire {

namespace {

struct Instruments {
  obs::Counter* queries;
  obs::Counter* blocks_decoded;
};

const Instruments* GetInstruments() {
  if (!spire::obs::Enabled()) return nullptr;
  auto& registry = obs::Registry::Global();
  static const Instruments instruments{
      registry.GetCounter("query", "queries"),
      registry.GetCounter("query", "blocks_decoded"),
  };
  return &instruments;
}

void CountQuery() {
  if (const Instruments* instruments = GetInstruments()) {
    instruments->queries->Add(1);
  }
}

bool IsLocationKind(const Event& event) {
  return !IsContainmentEvent(event.type);
}

/// A Collect narrowing that never narrows: every block is scanned.
std::optional<std::span<const std::uint32_t>> ScanAll(const DecodedBlock&) {
  return std::nullopt;
}

}  // namespace

SegmentLog::SegmentLog(ArchiveReader reader, std::shared_ptr<BlockCache> cache)
    : reader_(std::move(reader)), cache_(std::move(cache)) {
  segment_tag_ = BlockCache::NextSegmentTag();
  monotone_min_epochs_ = true;
  const std::vector<BlockMeta>& blocks = reader_.blocks();
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    if (blocks[i].min_epoch < blocks[i - 1].min_epoch) {
      monotone_min_epochs_ = false;
      break;
    }
  }
}

Result<std::unique_ptr<SegmentLog>> SegmentLog::Open(
    const std::string& path, ReaderOptions options,
    std::shared_ptr<BlockCache> cache) {
  auto reader = ArchiveReader::Open(path, options);
  if (!reader.ok()) return reader.status();
  return std::unique_ptr<SegmentLog>(
      new SegmentLog(std::move(reader).value(), std::move(cache)));
}

std::vector<std::uint32_t> SegmentLog::CandidateBlocks(
    const std::vector<std::uint32_t>& postings, Epoch epoch) const {
  const std::vector<BlockMeta>& blocks = reader_.blocks();
  if (monotone_min_epochs_) {
    // min-epochs are monotone over the directory, hence over any posting
    // list (a subsequence), so the candidates are a binary-searched prefix.
    auto end = std::partition_point(
        postings.begin(), postings.end(), [&](std::uint32_t index) {
          return blocks[index].min_epoch <= epoch;
        });
    return {postings.begin(), end};
  }
  std::vector<std::uint32_t> selected;
  for (std::uint32_t index : postings) {
    if (blocks[index].min_epoch <= epoch) selected.push_back(index);
  }
  return selected;
}

Result<BlockCache::BlockPtr> SegmentLog::FetchBlock(
    std::uint32_t index) const {
  if (cache_ != nullptr) {
    if (BlockCache::BlockPtr hit = cache_->Get(segment_tag_, index)) {
      return hit;
    }
  }
  auto decoded = reader_.DecodeOneBlock(index);
  if (!decoded.ok()) return decoded.status();
  blocks_decoded_.fetch_add(1, std::memory_order_relaxed);
  if (const Instruments* instruments = GetInstruments()) {
    instruments->blocks_decoded->Add(1);
  }
  auto block =
      std::make_shared<const DecodedBlock>(std::move(decoded).value());
  if (cache_ != nullptr) cache_->Put(segment_tag_, index, block);
  return block;
}

template <typename Narrow, typename Keep>
Result<EventStream> SegmentLog::Collect(
    const std::vector<std::uint32_t>& blocks, Narrow narrow,
    Keep keep) const {
  EventStream selected;
  for (std::uint32_t index : blocks) {
    auto block = FetchBlock(index);
    if (!block.ok()) return block.status();
    const EventStream& events = block.value()->events();
    const std::optional<std::span<const std::uint32_t>> positions =
        narrow(*block.value());
    if (!positions.has_value()) {
      for (const Event& event : events) {
        if (keep(event)) selected.push_back(event);
      }
      continue;
    }
    for (std::uint32_t position : *positions) {
      const Event& event = events[position];
      if (keep(event)) selected.push_back(event);
    }
  }
  return selected;
}

template <typename Keep>
Result<EventStream> SegmentLog::CollectObject(
    const std::vector<std::uint32_t>& blocks, ObjectId object,
    Keep keep) const {
  return Collect(
      blocks,
      [&](const DecodedBlock& block)
          -> std::optional<std::span<const std::uint32_t>> {
        // An uncached block is decoded for this query alone; indexing it
        // would cost more than the scan it saves.
        if (cache_ == nullptr) return std::nullopt;
        return block.PositionsOf(object);
      },
      keep);
}

Result<LocationId> SegmentLog::LocationAt(ObjectId object,
                                          Epoch epoch) const {
  CountQuery();
  const std::vector<std::uint32_t>* postings =
      reader_.PostingsForObject(object);
  if (postings == nullptr) return kUnknownLocation;
  auto selected = CollectObject(
      CandidateBlocks(*postings, epoch), object, [&](const Event& event) {
        return event.object == object &&
               (event.type == EventType::kStartLocation ||
                event.type == EventType::kEndLocation);
      });
  if (!selected.ok()) return selected.status();
  // Folded events are start-sorted; at most one location stay covers any
  // epoch (well-formedness forbids nested Starts), mirroring CoveringStay.
  for (const RangedEvent& stay : FoldEvents(selected.value())) {
    if (stay.type != EventType::kStartLocation) continue;
    if (stay.start <= epoch && epoch < stay.end) return stay.location;
    if (stay.start > epoch) break;
  }
  return kUnknownLocation;
}

Result<ObjectId> SegmentLog::ContainerAt(ObjectId object, Epoch epoch) const {
  CountQuery();
  const std::vector<std::uint32_t>* postings =
      reader_.PostingsForObject(object);
  if (postings == nullptr) return kNoObject;
  auto selected = CollectObject(
      CandidateBlocks(*postings, epoch), object, [&](const Event& event) {
        return event.object == object && IsContainmentEvent(event.type);
      });
  if (!selected.ok()) return selected.status();
  for (const RangedEvent& stay : FoldEvents(selected.value())) {
    if (stay.type != EventType::kStartContainment) continue;
    if (stay.start <= epoch && epoch < stay.end) return stay.container;
    if (stay.start > epoch) break;
  }
  return kNoObject;
}

Status SegmentLog::AppendContents(ObjectId container, Epoch epoch,
                                  bool transitive, std::vector<ObjectId>* out,
                                  std::vector<ObjectId>* visited) const {
  const std::vector<std::uint32_t>* postings =
      reader_.PostingsForContainer(container);
  if (postings == nullptr) return Status::OK();
  // A block indexed by an earlier object-keyed lookup narrows to this
  // container's events; any other block is scanned.
  auto selected = Collect(
      CandidateBlocks(*postings, epoch),
      [&](const DecodedBlock& block) {
        return block.IndexedContainmentPositionsOf(container);
      },
      [&](const Event& event) {
        return IsContainmentEvent(event.type) && event.container == container;
      });
  if (!selected.ok()) return selected.status();
  std::vector<ObjectId> direct;
  for (const RangedEvent& stay : FoldEvents(selected.value())) {
    if (stay.type != EventType::kStartContainment) continue;
    if (stay.start <= epoch && epoch < stay.end) direct.push_back(stay.object);
  }
  out->insert(out->end(), direct.begin(), direct.end());
  if (!transitive) return Status::OK();
  for (ObjectId child : direct) {
    // The containment forest is acyclic on well-formed data; the visited
    // set guards malformed cycles and skips DAG re-visits (the final
    // sort+unique makes the result a set either way).
    if (std::find(visited->begin(), visited->end(), child) != visited->end()) {
      continue;
    }
    visited->push_back(child);
    SPIRE_RETURN_NOT_OK(AppendContents(child, epoch, true, out, visited));
  }
  return Status::OK();
}

Result<std::vector<ObjectId>> SegmentLog::ContentsAt(ObjectId container,
                                                     Epoch epoch,
                                                     bool transitive) const {
  CountQuery();
  std::vector<ObjectId> contents;
  std::vector<ObjectId> visited{container};
  SPIRE_RETURN_NOT_OK(
      AppendContents(container, epoch, transitive, &contents, &visited));
  std::sort(contents.begin(), contents.end());
  contents.erase(std::unique(contents.begin(), contents.end()),
                 contents.end());
  return contents;
}

Result<std::vector<ObjectId>> SegmentLog::ObjectsAt(LocationId location,
                                                    Epoch epoch) const {
  CountQuery();
  std::vector<ObjectId> objects;
  const std::vector<std::uint32_t>* postings =
      reader_.PostingsForLocation(location);
  if (postings == nullptr) return objects;
  auto selected = Collect(
      CandidateBlocks(*postings, epoch), ScanAll,
      [&](const Event& event) {
        return IsLocationKind(event) && event.location == location;
      });
  if (!selected.ok()) return selected.status();
  for (const RangedEvent& stay : FoldEvents(selected.value())) {
    if (stay.type != EventType::kStartLocation) continue;
    if (stay.start <= epoch && epoch < stay.end) {
      objects.push_back(stay.object);
    }
  }
  std::sort(objects.begin(), objects.end());
  return objects;
}

Result<std::vector<Stay>> SegmentLog::TrajectoryOf(ObjectId object) const {
  CountQuery();
  std::vector<Stay> trajectory;
  const std::vector<std::uint32_t>* postings =
      reader_.PostingsForObject(object);
  if (postings == nullptr) return trajectory;
  // Timeline query: no epoch cut — every posting block participates.
  auto selected = CollectObject(*postings, object, [&](const Event& event) {
    return event.object == object &&
           (event.type == EventType::kStartLocation ||
            event.type == EventType::kEndLocation);
  });
  if (!selected.ok()) return selected.status();
  for (const RangedEvent& folded : FoldEvents(selected.value())) {
    if (folded.type != EventType::kStartLocation) continue;
    Stay stay;
    stay.start = folded.start;
    stay.end = folded.end;
    stay.location = folded.location;
    trajectory.push_back(stay);
  }
  return trajectory;
}

Result<bool> SegmentLog::IsMissingAt(ObjectId object, Epoch epoch) const {
  CountQuery();
  const std::vector<std::uint32_t>* postings =
      reader_.PostingsForObject(object);
  if (postings == nullptr) return false;
  // Missing reports close at the object's next location stay, so the fold
  // needs both kinds of location events.
  auto selected = CollectObject(
      CandidateBlocks(*postings, epoch), object, [&](const Event& event) {
        return event.object == object && IsLocationKind(event);
      });
  if (!selected.ok()) return selected.status();
  const std::vector<RangedEvent> folded = FoldEvents(selected.value());
  for (const RangedEvent& report : folded) {
    if (report.type != EventType::kMissing) continue;
    if (report.start > epoch) break;  // Start-sorted; no later report covers.
    // The report runs until the object's next sighting: the first location
    // stay starting at or after `since` (EventLog's closing rule). A
    // sighting past the candidate prefix starts after `epoch`, so the
    // answer at `epoch` is unchanged by the cut.
    Epoch until = kInfiniteEpoch;
    for (const RangedEvent& stay : folded) {
      if (stay.type != EventType::kStartLocation) continue;
      if (stay.start >= report.start) {
        until = stay.start;
        break;
      }
    }
    if (report.start <= epoch && epoch < until) return true;
  }
  return false;
}

}  // namespace spire
