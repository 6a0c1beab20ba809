#include "query/block_cache.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "obs/registry.h"

namespace spire {

namespace {

struct Instruments {
  obs::Counter* cache_hits;
  obs::Counter* cache_misses;
  obs::Counter* cache_evictions;
  obs::Gauge* cache_bytes;
};

const Instruments* GetInstruments() {
  if (!spire::obs::Enabled()) return nullptr;
  auto& registry = obs::Registry::Global();
  static const Instruments instruments{
      registry.GetCounter("query", "cache_hits"),
      registry.GetCounter("query", "cache_misses"),
      registry.GetCounter("query", "cache_evictions"),
      registry.GetGauge("query", "cache_bytes"),
  };
  return &instruments;
}

std::uint64_t KeyOf(std::uint64_t segment_tag, std::uint32_t block_index) {
  return (segment_tag << 32) | block_index;
}

constexpr std::uint32_t kEmptySlot = ~std::uint32_t{0};

std::uint64_t CostOf(const DecodedBlock& block) {
  return DecodedBlock::FootprintFor(block.events().size()) +
         BlockCache::kEntryOverheadBytes;
}

}  // namespace

void DecodedBlock::BuildIndex() const {
  const std::size_t n = events_.size();
  const auto contained = std::count_if(
      events_.begin(), events_.end(),
      [](const Event& event) { return IsContainmentEvent(event.type); });
  std::vector<std::uint32_t> positions(n);
  positions.reserve(n + static_cast<std::size_t>(contained));
  std::iota(positions.begin(), positions.end(), 0u);
  std::sort(positions.begin(), positions.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              const ObjectId lhs = events_[a].object;
              const ObjectId rhs = events_[b].object;
              return lhs != rhs ? lhs < rhs : a < b;
            });
  for (std::uint32_t i = 0; i < n; ++i) {
    if (IsContainmentEvent(events_[i].type)) positions.push_back(i);
  }
  std::stable_sort(positions.begin() + static_cast<std::ptrdiff_t>(n),
                   positions.end(), [this](std::uint32_t a, std::uint32_t b) {
                     return events_[a].container < events_[b].container;
                   });
  index_positions_ = std::move(positions);
  index_slots_.assign(SlotsFor(n), kEmptySlot);
  const std::size_t mask = index_slots_.size() - 1;
  for (std::uint32_t run = 0; run < index_positions_.size(); ++run) {
    const ObjectId key = KeyAt(run);
    if (run != 0 && run != n && KeyAt(run - 1) == key) continue;
    std::size_t slot = ObjectKeyHash(key, run >= n) & mask;
    while (index_slots_[slot] != kEmptySlot) slot = (slot + 1) & mask;
    index_slots_[slot] = run;
  }
  index_ready_.store(true, std::memory_order_release);
}

ObjectId DecodedBlock::KeyAt(std::size_t i) const {
  const Event& event = events_[index_positions_[i]];
  return i < events_.size() ? event.object : event.container;
}

std::span<const std::uint32_t> DecodedBlock::FindRun(ObjectId key,
                                                     bool container) const {
  const std::size_t n = events_.size();
  const std::size_t mask = index_slots_.size() - 1;
  for (std::size_t slot = ObjectKeyHash(key, container) & mask;;
       slot = (slot + 1) & mask) {
    const std::uint32_t run = index_slots_[slot];
    if (run == kEmptySlot) return {};
    if ((run >= n) != container || KeyAt(run) != key) continue;
    const std::size_t limit = container ? index_positions_.size() : n;
    std::size_t end = run + 1;
    while (end < limit && KeyAt(end) == key) ++end;
    return {index_positions_.data() + run, end - run};
  }
}

std::span<const std::uint32_t> DecodedBlock::PositionsOf(
    ObjectId object) const {
  std::call_once(index_once_, [this] { BuildIndex(); });
  return FindRun(object, /*container=*/false);
}

std::optional<std::span<const std::uint32_t>>
DecodedBlock::IndexedContainmentPositionsOf(ObjectId container) const {
  if (!index_ready_.load(std::memory_order_acquire)) return std::nullopt;
  return FindRun(container, /*container=*/true);
}

BlockCache::BlockCache(std::uint64_t capacity_bytes, std::size_t num_shards)
    : capacity_bytes_(capacity_bytes) {
  if (num_shards == 0) num_shards = 1;
  shard_capacity_ = capacity_bytes / num_shards;
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

BlockCache::Shard& BlockCache::ShardFor(std::uint64_t key) {
  // Fibonacci hashing spreads both the tag and block-index bits, so
  // consecutive blocks of one segment land on different shards.
  const std::uint64_t mixed = key * 0x9E3779B97F4A7C15ull;
  return *shards_[(mixed >> 32) % shards_.size()];
}

BlockCache::BlockPtr BlockCache::Get(std::uint64_t segment_tag,
                                     std::uint32_t block_index) {
  const std::uint64_t key = KeyOf(segment_tag, block_index);
  Shard& shard = ShardFor(key);
  const Instruments* instruments = GetInstruments();
  std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.lookups;
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    ++shard.misses;
    if (instruments != nullptr) instruments->cache_misses->Add(1);
    return nullptr;
  }
  ++shard.hits;
  if (instruments != nullptr) instruments->cache_hits->Add(1);
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
  return it->second.block;
}

void BlockCache::Put(std::uint64_t segment_tag, std::uint32_t block_index,
                     BlockPtr block) {
  if (block == nullptr) return;
  const std::uint64_t key = KeyOf(segment_tag, block_index);
  const std::uint64_t cost = CostOf(*block);
  Shard& shard = ShardFor(key);
  const Instruments* instruments = GetInstruments();
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.entries.contains(key)) return;  // Lost a same-key miss race.
  shard.lru.push_front(key);
  shard.entries[key] = Entry{std::move(block), cost, shard.lru.begin()};
  shard.bytes += cost;
  if (instruments != nullptr) {
    instruments->cache_bytes->Add(static_cast<std::int64_t>(cost));
  }
  // Evict from the cold end, but never the entry just inserted.
  while (shard.bytes > shard_capacity_ && shard.entries.size() > 1) {
    const std::uint64_t victim = shard.lru.back();
    auto victim_it = shard.entries.find(victim);
    shard.bytes -= victim_it->second.cost;
    if (instruments != nullptr) {
      instruments->cache_bytes->Add(
          -static_cast<std::int64_t>(victim_it->second.cost));
      instruments->cache_evictions->Add(1);
    }
    shard.entries.erase(victim_it);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

BlockCache::Stats BlockCache::GetStats() const {
  Stats stats;
  stats.capacity_bytes = capacity_bytes_;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    stats.lookups += shard->lookups;
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.evictions += shard->evictions;
    stats.bytes += shard->bytes;
  }
  return stats;
}

std::uint64_t BlockCache::NextSegmentTag() {
  static std::atomic<std::uint64_t> next_tag{1};
  return next_tag.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace spire
