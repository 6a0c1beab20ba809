// Sharded LRU cache of decoded archive blocks, shared by concurrent
// segment-direct query threads (segment_log.h).
//
// The cache sits between ArchiveReader and the block codecs: a hit returns
// the DecodedBlock without touching the segment or paying a decode; a miss
// is decoded by the caller and offered back with Put. Entries are handed
// out as shared_ptr<const DecodedBlock>, so an entry evicted while a reader
// still folds it stays alive until that reader drops it — eviction never
// invalidates an in-flight query.
//
// A DecodedBlock is the block's events plus a key index, built at most
// once, on the first object-keyed lookup that touches the block: a point
// query on a hit then visits only its object's events instead of scanning
// the whole block. The same build also indexes the block's containment
// events by container, and a container lookup (ContentsAt) uses that part
// when the block already has it — but a container or location lookup never
// builds the index itself: the caches those queries were measured on
// (perfbench `inventory`) evict a block on almost every query, so an index
// built for them would be rebuilt over and over and never earn its build
// back. Location queries (ObjectsAt) always scan.
//
// Keys are (segment tag, block index). Tags come from NextSegmentTag(), a
// process-wide counter, so two opens of the same path — or a segment
// replaced on disk by `compact` — never alias cache entries: a SegmentLog
// is snapshot-isolated from whatever happens to the file after open.
//
// Capacity is in bytes of decoded events plus their index, split evenly
// across the shards. The index's size is bounded by the event count, so
// Put charges that bound whether or not the index has been built yet. Each
// shard orders its entries LRU under its own mutex, so threads hitting
// different shards never contend. A shard never evicts the entry just
// inserted, so a shard smaller than one entry keeps exactly one: the
// budget is then not a bound, and Stats::bytes may reach num_shards times
// the largest entry whatever the capacity. (perfbench `inventory` runs in
// that regime: 621,324 B over 8 shards of 77,665 B, against 295,008 B
// per 4,096-event block, so up to 8 of its 13 blocks stay resident, about
// 2.36 MB or 3.8x the budget.) Concurrent misses on one key may both
// decode (misses can exceed unique blocks; `decodes <= misses` is the
// reconciliation invariant, with `hits + misses == lookups`) — the second
// Put is a no-op, which keeps the bytes accounting exact.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "compress/event.h"

namespace spire {

/// One decoded archive block as the cache holds it: the events, in stream
/// order, plus a lazily built index from objects, and from the containers
/// named by containment events, to their positions.
class DecodedBlock {
 public:
  explicit DecodedBlock(EventStream events) : events_(std::move(events)) {}

  DecodedBlock(const DecodedBlock&) = delete;
  DecodedBlock& operator=(const DecodedBlock&) = delete;

  const EventStream& events() const { return events_; }

  /// Positions in events() of the events whose `object` field is `object`,
  /// ascending (stream order); empty when the block holds none. The first
  /// call builds the index; concurrent first calls are safe and build it
  /// once.
  std::span<const std::uint32_t> PositionsOf(ObjectId object) const;

  /// Positions in events() of the containment events whose `container`
  /// field is `container`, ascending; std::nullopt while the index is not
  /// built. Never builds it (see the file comment).
  std::optional<std::span<const std::uint32_t>> IndexedContainmentPositionsOf(
      ObjectId container) const;

  /// Bytes a block of `num_events` events occupies once its index is
  /// built, at most: the events, one object position per event, at most
  /// one container position per event, and the slot table.
  static std::uint64_t FootprintFor(std::size_t num_events) {
    return num_events * (sizeof(Event) + 2 * sizeof(std::uint32_t)) +
           SlotsFor(num_events) * sizeof(std::uint32_t);
  }

 private:
  /// More than twice the event count: the object and container keys
  /// together number at most that, so the table is never full.
  static std::size_t SlotsFor(std::size_t num_events) {
    return std::bit_ceil(2 * num_events + 1);
  }

  void BuildIndex() const;
  /// The run of `key` among the object runs, or among the container runs.
  std::span<const std::uint32_t> FindRun(ObjectId key, bool container) const;
  /// The key of the run entry at `i` of index_positions_.
  ObjectId KeyAt(std::size_t i) const;

  EventStream events_;
  mutable std::once_flag index_once_;
  /// Set (release) once the index is complete, for lookups that must not
  /// build it.
  mutable std::atomic<bool> index_ready_{false};
  /// Every event position sorted by (object, position), followed by the
  /// containment events' positions sorted by (container, position): one
  /// key's positions are a contiguous ascending run.
  mutable std::vector<std::uint32_t> index_positions_;
  /// Open-addressed hash table (linear probing) from a key to the start of
  /// its run in index_positions_; a start below events().size() is an
  /// object run, any other a container run. All ones where unused.
  mutable std::vector<std::uint32_t> index_slots_;
};

class BlockCache {
 public:
  using BlockPtr = std::shared_ptr<const DecodedBlock>;

  /// Aggregate counters across all shards. lookups == hits + misses by
  /// construction; bytes is the current charged footprint (events, index
  /// bound and per-entry overhead).
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bytes = 0;
    std::uint64_t capacity_bytes = 0;
  };

  /// A cache holding up to `capacity_bytes` of decoded blocks across
  /// `num_shards` independently locked LRU shards.
  explicit BlockCache(std::uint64_t capacity_bytes,
                      std::size_t num_shards = kDefaultShards);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// The decoded block, or nullptr on a miss (counted). A hit refreshes
  /// the entry's LRU position.
  BlockPtr Get(std::uint64_t segment_tag, std::uint32_t block_index);

  /// Offers a decoded block. No-op when the key is already present (the
  /// loser of a concurrent same-key miss race). May evict LRU entries to
  /// stay within the shard's capacity; the entry just inserted is never
  /// the one evicted, so even a block larger than a whole shard serves
  /// at least its own next lookup.
  void Put(std::uint64_t segment_tag, std::uint32_t block_index,
           BlockPtr block);

  Stats GetStats() const;

  std::uint64_t capacity_bytes() const { return capacity_bytes_; }

  /// Process-wide unique tag for one opened segment view; see file comment.
  static std::uint64_t NextSegmentTag();

  /// Charged per entry on top of DecodedBlock::FootprintFor: list + map
  /// node and control-block bookkeeping.
  static constexpr std::uint64_t kEntryOverheadBytes = 96;

 private:
  static constexpr std::size_t kDefaultShards = 8;

  struct Entry {
    BlockPtr block;
    std::uint64_t cost = 0;
    std::list<std::uint64_t>::iterator lru_pos;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::list<std::uint64_t> lru;  ///< Front = most recently used.
    std::unordered_map<std::uint64_t, Entry> entries;
    std::uint64_t bytes = 0;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  Shard& ShardFor(std::uint64_t key);

  std::uint64_t capacity_bytes_;
  std::uint64_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace spire
