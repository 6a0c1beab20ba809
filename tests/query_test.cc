// Tests for the query engine (src/query) — point, set, and timeline
// queries over level-1 and level-2 streams via the materialized EventLog,
// the segment-direct SegmentLog and its LRU block cache, plus an
// end-to-end check against the simulator's ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <filesystem>
#include <span>
#include <thread>

#include "common/epc.h"
#include "query/block_cache.h"
#include "query/event_log.h"
#include "query/segment_log.h"
#include "sim/simulator.h"
#include "spire/pipeline.h"
#include "store/archive_reader.h"
#include "store/archive_writer.h"

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
const ObjectId kPallet = Obj(PackagingLevel::kPallet, 4);

/// A small hand-built level-1 stream:
///   item: loc 4 [10,20), loc 7 [25,50), missing at 20..25 and after 50
///   case: loc 4 [10,60)
///   containment: item in case [12,40), case in pallet [15,30)
EventStream SampleStream() {
  return {
      Event::StartLocation(kItem, 4, 10),
      Event::StartLocation(kCase, 4, 10),
      Event::StartContainment(kItem, kCase, 12),
      Event::StartContainment(kCase, kPallet, 15),
      Event::EndLocation(kItem, 4, 10, 20),
      Event::Missing(kItem, 4, 20),
      Event::StartLocation(kItem, 7, 25),
      Event::EndContainment(kCase, kPallet, 15, 30),
      Event::EndContainment(kItem, kCase, 12, 40),
      Event::EndLocation(kItem, 7, 25, 50),
      Event::Missing(kItem, 7, 50),
      Event::EndLocation(kCase, 4, 10, 60),
  };
}

class EventLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto built = EventLog::Build(SampleStream());
    ASSERT_TRUE(built.ok());
    log_ = std::make_unique<EventLog>(std::move(built).value());
  }
  std::unique_ptr<EventLog> log_;
};

TEST_F(EventLogTest, LocationAt) {
  EXPECT_EQ(log_->LocationAt(kItem, 9), kUnknownLocation);
  EXPECT_EQ(log_->LocationAt(kItem, 10), 4);
  EXPECT_EQ(log_->LocationAt(kItem, 19), 4);
  EXPECT_EQ(log_->LocationAt(kItem, 20), kUnknownLocation);  // End exclusive.
  EXPECT_EQ(log_->LocationAt(kItem, 30), 7);
  EXPECT_EQ(log_->LocationAt(kItem, 55), kUnknownLocation);
  EXPECT_EQ(log_->LocationAt(Obj(PackagingLevel::kItem, 99), 30),
            kUnknownLocation);
}

TEST_F(EventLogTest, ContainerAt) {
  EXPECT_EQ(log_->ContainerAt(kItem, 11), kNoObject);
  EXPECT_EQ(log_->ContainerAt(kItem, 12), kCase);
  EXPECT_EQ(log_->ContainerAt(kItem, 39), kCase);
  EXPECT_EQ(log_->ContainerAt(kItem, 40), kNoObject);
}

TEST_F(EventLogTest, TopLevelContainerWalksTheChain) {
  EXPECT_EQ(log_->TopLevelContainerAt(kItem, 20), kPallet);  // item<case<pallet
  EXPECT_EQ(log_->TopLevelContainerAt(kItem, 35), kCase);    // pallet ended
  EXPECT_EQ(log_->TopLevelContainerAt(kItem, 45), kItem);    // uncontained
  EXPECT_EQ(log_->TopLevelContainerAt(Obj(PackagingLevel::kItem, 99), 20),
            kNoObject);
}

TEST_F(EventLogTest, MissingIntervals) {
  EXPECT_FALSE(log_->IsMissingAt(kItem, 19));
  EXPECT_TRUE(log_->IsMissingAt(kItem, 20));
  EXPECT_TRUE(log_->IsMissingAt(kItem, 24));
  EXPECT_FALSE(log_->IsMissingAt(kItem, 25));  // Reappeared.
  EXPECT_TRUE(log_->IsMissingAt(kItem, 99));   // Never seen again.
  ASSERT_EQ(log_->MissingReports().size(), 2u);
  EXPECT_EQ(log_->MissingReports()[0].until, 25);
  EXPECT_EQ(log_->MissingReports()[1].until, kInfiniteEpoch);
}

TEST_F(EventLogTest, ContentsAt) {
  EXPECT_EQ(log_->ContentsAt(kCase, 20), std::vector<ObjectId>{kItem});
  EXPECT_EQ(log_->ContentsAt(kPallet, 20), std::vector<ObjectId>{kCase});
  std::vector<ObjectId> transitive = log_->ContentsAt(kPallet, 20, true);
  ASSERT_EQ(transitive.size(), 2u);  // Case and, through it, the item.
  EXPECT_TRUE(log_->ContentsAt(kPallet, 35).empty());
}

TEST_F(EventLogTest, ObjectsAt) {
  std::vector<ObjectId> at4 = log_->ObjectsAt(4, 15);
  ASSERT_EQ(at4.size(), 2u);
  EXPECT_EQ(at4[0], kItem);
  EXPECT_EQ(at4[1], kCase);
  EXPECT_EQ(log_->ObjectsAt(4, 25), std::vector<ObjectId>{kCase});
  EXPECT_TRUE(log_->ObjectsAt(9, 15).empty());
}

TEST_F(EventLogTest, Timelines) {
  const std::vector<Stay>& trajectory = log_->TrajectoryOf(kItem);
  ASSERT_EQ(trajectory.size(), 2u);
  EXPECT_EQ(trajectory[0].location, 4);
  EXPECT_EQ(trajectory[1].location, 7);
  EXPECT_EQ(log_->ContainmentsOf(kItem).size(), 1u);
  EXPECT_TRUE(log_->TrajectoryOf(Obj(PackagingLevel::kItem, 99)).empty());
}

TEST_F(EventLogTest, Metadata) {
  EXPECT_EQ(log_->num_objects(), 2u);  // Objects with location stays.
  EXPECT_EQ(log_->first_epoch(), 10);
  EXPECT_EQ(log_->last_epoch(), 60);
}

TEST(EventLogBuildTest, RejectsIllFormedStreams) {
  EventStream bad{Event::EndLocation(kItem, 4, 1, 2)};
  EXPECT_FALSE(EventLog::Build(bad).ok());
}

TEST(EventLogBuildTest, AcceptsOpenTrailingEvents) {
  EventStream open{Event::StartLocation(kItem, 4, 10)};
  auto log = EventLog::Build(open);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log.value().LocationAt(kItem, 1000), 4);  // Open-ended stay.
}

TEST(EventLogInverseIndexTest, NestedContainmentAcrossReopenedStays) {
  // The case sits in the pallet twice ([5,15) and [25,35)); the item enters
  // the SAME case twice ([10,20) and [30,40)). Inverse indexes must track
  // each stay independently.
  EventStream stream{
      Event::StartLocation(kPallet, 4, 5),
      Event::StartLocation(kCase, 4, 5),
      Event::StartContainment(kCase, kPallet, 5),
      Event::StartLocation(kItem, 4, 10),
      Event::StartContainment(kItem, kCase, 10),
      Event::EndContainment(kCase, kPallet, 5, 15),
      Event::EndContainment(kItem, kCase, 10, 20),
      Event::StartContainment(kCase, kPallet, 25),
      Event::StartContainment(kItem, kCase, 30),
      Event::EndContainment(kCase, kPallet, 25, 35),
      Event::EndContainment(kItem, kCase, 30, 40),
      Event::EndLocation(kItem, 4, 10, 40),
      Event::EndLocation(kPallet, 4, 5, 45),
      Event::EndLocation(kCase, 4, 5, 50),
  };
  auto built = EventLog::Build(stream);
  ASSERT_TRUE(built.ok());
  const EventLog& log = built.value();

  // Direct contents around the first stay, the gap, and the re-entry into
  // the same container.
  EXPECT_EQ(log.ContentsAt(kCase, 12), std::vector<ObjectId>{kItem});
  EXPECT_TRUE(log.ContentsAt(kCase, 22).empty());
  EXPECT_EQ(log.ContentsAt(kCase, 31), std::vector<ObjectId>{kItem});
  EXPECT_TRUE(log.ContentsAt(kCase, 40).empty());  // End exclusive.

  // Transitive contents of the pallet across both of its stays.
  std::vector<ObjectId> first = log.ContentsAt(kPallet, 12, true);
  ASSERT_EQ(first.size(), 2u);  // Case plus, through it, the item.
  // During the second pallet stay but before the item re-enters the case.
  EXPECT_EQ(log.ContentsAt(kPallet, 27, true), std::vector<ObjectId>{kCase});
  std::vector<ObjectId> second = log.ContentsAt(kPallet, 32, true);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(log.TopLevelContainerAt(kItem, 32), kPallet);
  EXPECT_EQ(log.TopLevelContainerAt(kItem, 38), kCase);  // Pallet stay over.

  // Location inverse index with all three objects co-located.
  EXPECT_EQ(log.ObjectsAt(4, 12).size(), 3u);
  EXPECT_EQ(log.ObjectsAt(4, 47), std::vector<ObjectId>{kCase});
  EXPECT_TRUE(log.ObjectsAt(4, 50).empty());
}

TEST(EventLogArchiveTest, FromArchiveRestrictedWindow) {
  const std::string path = ::testing::TempDir() + "/query_archive.sparc";
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(IndexPathFor(path), ec);
  auto writer = ArchiveWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Append(SampleStream()).ok());
  ASSERT_TRUE(writer.value()->Close().ok());
  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());

  // Unrestricted: answers match a log built straight from the stream.
  auto full = EventLog::FromArchive(reader.value(), 0, kInfiniteEpoch);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().LocationAt(kItem, 15), 4);
  EXPECT_EQ(full.value().ContainerAt(kItem, 20), kCase);
  EXPECT_EQ(full.value().TopLevelContainerAt(kItem, 20), kPallet);

  // Restricted to [35, 60]: only End/Missing messages fall inside, and the
  // repair re-materializes their Starts so intervals overlapping the window
  // remain queryable...
  auto windowed = EventLog::FromArchive(reader.value(), 35, 60);
  ASSERT_TRUE(windowed.ok());
  const EventLog& log = windowed.value();
  EXPECT_EQ(log.ContainerAt(kItem, 38), kCase);  // Stay [12,40).
  EXPECT_EQ(log.LocationAt(kItem, 40), 7);       // Stay [25,50).
  EXPECT_EQ(log.LocationAt(kCase, 45), 4);       // Stay [10,60).
  EXPECT_TRUE(log.IsMissingAt(kItem, 55));
  // ...while history that closed before the window is absent.
  EXPECT_EQ(log.LocationAt(kItem, 15), kUnknownLocation);
  EXPECT_EQ(log.ContainerAt(kCase, 20), kNoObject);
}

TEST(EventLogArchiveTest, FromArchiveRangeBoundaries) {
  const std::string path = ::testing::TempDir() + "/query_bounds.sparc";
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(IndexPathFor(path), ec);
  ArchiveOptions options;
  options.block_events = 3;  // Force the window to straddle several blocks.
  auto writer = ArchiveWriter::Open(path, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Append(SampleStream()).ok());
  ASSERT_TRUE(writer.value()->Close().ok());
  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_GT(reader.value().num_blocks(), 1u);

  // Empty window past every event: a valid, vacant log.
  auto past = EventLog::FromArchive(reader.value(), 1000, 2000);
  ASSERT_TRUE(past.ok());
  EXPECT_TRUE(past.value().Objects().empty());
  EXPECT_EQ(past.value().LocationAt(kItem, 1500), kUnknownLocation);

  // Inverted window: no events qualify either.
  auto inverted = EventLog::FromArchive(reader.value(), 50, 20);
  ASSERT_TRUE(inverted.ok());
  EXPECT_TRUE(inverted.value().Objects().empty());

  // Degenerate window on exactly one primary timestamp: the two Starts at
  // epoch 10 are included (lo inclusive) and stay open — no End in range.
  auto at10 = EventLog::FromArchive(reader.value(), 10, 10);
  ASSERT_TRUE(at10.ok());
  EXPECT_EQ(at10.value().LocationAt(kItem, 1000), 4);
  EXPECT_EQ(at10.value().LocationAt(kCase, 1000), 4);
  EXPECT_EQ(at10.value().ContainerAt(kItem, 15), kNoObject);  // Start at 12.

  // One past that timestamp excludes them (lo is a strict boundary).
  auto at11 = EventLog::FromArchive(reader.value(), 11, 11);
  ASSERT_TRUE(at11.ok());
  EXPECT_EQ(at11.value().LocationAt(kItem, 1000), kUnknownLocation);

  // Window ending exactly on an End's primary timestamp (hi inclusive):
  // the repair re-materializes the Start, so the full stay is queryable.
  auto at60 = EventLog::FromArchive(reader.value(), 60, 60);
  ASSERT_TRUE(at60.ok());
  EXPECT_EQ(at60.value().LocationAt(kCase, 59), 4);   // Stay [10,60).
  EXPECT_EQ(at60.value().LocationAt(kCase, 60), kUnknownLocation);

  // Window whose lower bound bisects open stays: Ends inside the window
  // resurrect their Starts; fully-closed earlier history stays out.
  auto tail = EventLog::FromArchive(reader.value(), 45, kInfiniteEpoch);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.value().LocationAt(kItem, 45), 7);   // Stay [25,50).
  EXPECT_TRUE(tail.value().IsMissingAt(kItem, 55));   // Missing at 50.
  EXPECT_EQ(tail.value().LocationAt(kItem, 15), kUnknownLocation);
  EXPECT_EQ(tail.value().ContainerAt(kItem, 30), kNoObject);  // End at 40.
}

// --- Segment-direct serving (src/query/segment_log) -------------------------

class SegmentLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs this fixture's tests in parallel.
    path_ = ::testing::TempDir() + "/segment_log_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".sparc";
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(IndexPathFor(path_), ec);
    ArchiveOptions options;
    options.block_events = 3;  // Several blocks so the epoch cut matters.
    auto writer = ArchiveWriter::Open(path_, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(SampleStream()).ok());
    ASSERT_TRUE(writer.value()->Close().ok());

    cache_ = std::make_shared<BlockCache>(1 << 20);
    auto log = SegmentLog::Open(path_, ReaderOptions{}, cache_);
    ASSERT_TRUE(log.ok());
    log_ = std::move(log).value();

    auto baseline = EventLog::FromArchive(log_->reader(), 0, kInfiniteEpoch);
    ASSERT_TRUE(baseline.ok());
    baseline_ = std::make_unique<EventLog>(std::move(baseline).value());
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(IndexPathFor(path_), ec);
  }

  std::string path_;
  std::shared_ptr<BlockCache> cache_;
  std::unique_ptr<SegmentLog> log_;
  std::unique_ptr<EventLog> baseline_;
};

TEST_F(SegmentLogTest, MatchesEventLogAtEveryEdgeEpoch) {
  const std::vector<ObjectId> objects{kItem, kItem2, kCase, kPallet,
                                      Obj(PackagingLevel::kItem, 99)};
  // Every interval endpoint in SampleStream, its neighbors, and beyond.
  const std::vector<Epoch> epochs{0,  9,  10, 11, 12, 15, 19, 20, 24, 25,
                                  30, 39, 40, 49, 50, 55, 59, 60, 99};
  for (ObjectId object : objects) {
    for (Epoch epoch : epochs) {
      auto location = log_->LocationAt(object, epoch);
      ASSERT_TRUE(location.ok());
      EXPECT_EQ(location.value(), baseline_->LocationAt(object, epoch))
          << "LocationAt(" << object << ", " << epoch << ")";
      auto container = log_->ContainerAt(object, epoch);
      ASSERT_TRUE(container.ok());
      EXPECT_EQ(container.value(), baseline_->ContainerAt(object, epoch));
      auto missing = log_->IsMissingAt(object, epoch);
      ASSERT_TRUE(missing.ok());
      EXPECT_EQ(missing.value(), baseline_->IsMissingAt(object, epoch))
          << "IsMissingAt(" << object << ", " << epoch << ")";
      auto contents = log_->ContentsAt(object, epoch, /*transitive=*/true);
      ASSERT_TRUE(contents.ok());
      EXPECT_EQ(contents.value(), baseline_->ContentsAt(object, epoch, true));
    }
  }
  for (LocationId location : {LocationId{4}, LocationId{7}, LocationId{9}}) {
    for (Epoch epoch : epochs) {
      auto objects_at = log_->ObjectsAt(location, epoch);
      ASSERT_TRUE(objects_at.ok());
      EXPECT_EQ(objects_at.value(), baseline_->ObjectsAt(location, epoch));
    }
  }
}

TEST_F(SegmentLogTest, PointAnswers) {
  EXPECT_EQ(log_->LocationAt(kItem, 19).value(), 4);
  EXPECT_EQ(log_->LocationAt(kItem, 20).value(), kUnknownLocation);
  EXPECT_EQ(log_->ContainerAt(kItem, 12).value(), kCase);
  EXPECT_TRUE(log_->IsMissingAt(kItem, 24).value());
  EXPECT_FALSE(log_->IsMissingAt(kItem, 25).value());
  EXPECT_TRUE(log_->IsMissingAt(kItem, 99).value());  // Open Missing report.
  EXPECT_EQ(log_->ContentsAt(kPallet, 20).value(),
            std::vector<ObjectId>{kCase});
  EXPECT_EQ(log_->ContentsAt(kPallet, 20, true).value().size(), 2u);
  auto trajectory = log_->TrajectoryOf(kItem);
  ASSERT_TRUE(trajectory.ok());
  EXPECT_EQ(trajectory.value(), baseline_->TrajectoryOf(kItem));
  EXPECT_TRUE(log_->TrajectoryOf(kItem2).value().empty());
}

TEST_F(SegmentLogTest, CacheCountersReconcile) {
  for (Epoch epoch : {0, 15, 30, 55, 15, 30}) {
    ASSERT_TRUE(log_->LocationAt(kItem, epoch).ok());
    ASSERT_TRUE(log_->ObjectsAt(4, epoch).ok());
  }
  const BlockCache::Stats stats = cache_->GetStats();
  EXPECT_GT(stats.lookups, 0u);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_LE(log_->blocks_decoded(), stats.misses);
  EXPECT_GT(stats.hits, 0u);  // Repeat epochs must hit.
}

TEST_F(SegmentLogTest, ServesWithoutACache) {
  auto uncached = SegmentLog::Open(path_);
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(uncached.value()->LocationAt(kItem, 30).value(), 7);
  EXPECT_EQ(uncached.value()->ContainerAt(kCase, 20).value(), kPallet);
  EXPECT_GT(uncached.value()->blocks_decoded(), 0u);
}

TEST_F(SegmentLogTest, DistinctOpensNeverAliasCacheEntries) {
  auto other = SegmentLog::Open(path_, ReaderOptions{}, cache_);
  ASSERT_TRUE(other.ok());
  EXPECT_NE(other.value()->segment_tag(), log_->segment_tag());
  // The second view decodes its own blocks even though the first already
  // cached the same indexes (snapshot isolation across opens).
  ASSERT_TRUE(log_->LocationAt(kItem, 15).ok());
  const std::uint64_t before = other.value()->blocks_decoded();
  ASSERT_TRUE(other.value()->LocationAt(kItem, 15).ok());
  EXPECT_GT(other.value()->blocks_decoded(), before);
}

TEST_F(SegmentLogTest, ConcurrentQueriesAgree) {
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        const Epoch epoch = (t * 50 + round) % 70;
        auto location = log_->LocationAt(kItem, epoch);
        if (!location.ok() ||
            location.value() != baseline_->LocationAt(kItem, epoch)) {
          ++mismatches[t];
        }
        auto contents = log_->ContentsAt(kPallet, epoch, true);
        if (!contents.ok() ||
            contents.value() != baseline_->ContentsAt(kPallet, epoch, true)) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
  const BlockCache::Stats stats = cache_->GetStats();
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_LE(log_->blocks_decoded(), stats.misses);
}

// --- Block cache (src/query/block_cache) ------------------------------------

BlockCache::BlockPtr BlockOf(std::size_t events) {
  return std::make_shared<const DecodedBlock>(
      EventStream(events, Event::StartLocation(kItem, 4, 10)));
}

std::uint64_t CostOf(std::size_t events) {
  return DecodedBlock::FootprintFor(events) + BlockCache::kEntryOverheadBytes;
}

TEST(BlockCacheTest, MissThenHit) {
  BlockCache cache(1 << 20, /*num_shards=*/1);
  const std::uint64_t tag = BlockCache::NextSegmentTag();
  EXPECT_EQ(cache.Get(tag, 0), nullptr);
  BlockCache::BlockPtr block = BlockOf(3);
  cache.Put(tag, 0, block);
  EXPECT_EQ(cache.Get(tag, 0), block);
  EXPECT_EQ(cache.Get(tag, 1), nullptr);  // Other index: distinct key.
  const BlockCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.bytes, CostOf(3));
}

TEST(BlockCacheTest, PutIsANoOpOnAnExistingKey) {
  BlockCache cache(1 << 20, /*num_shards=*/1);
  const std::uint64_t tag = BlockCache::NextSegmentTag();
  BlockCache::BlockPtr first = BlockOf(2);
  cache.Put(tag, 7, first);
  cache.Put(tag, 7, BlockOf(5));  // Loser of a same-key miss race.
  EXPECT_EQ(cache.Get(tag, 7), first);
  EXPECT_EQ(cache.GetStats().bytes, CostOf(2));  // Accounting unchanged.
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsed) {
  // Room for exactly two one-event entries in a single shard.
  BlockCache cache(2 * CostOf(1), /*num_shards=*/1);
  const std::uint64_t tag = BlockCache::NextSegmentTag();
  cache.Put(tag, 1, BlockOf(1));
  cache.Put(tag, 2, BlockOf(1));
  EXPECT_NE(cache.Get(tag, 1), nullptr);  // Refresh: 2 is now the LRU.
  cache.Put(tag, 3, BlockOf(1));
  EXPECT_EQ(cache.Get(tag, 2), nullptr);  // Evicted.
  EXPECT_NE(cache.Get(tag, 1), nullptr);
  EXPECT_NE(cache.Get(tag, 3), nullptr);
  const BlockCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, stats.capacity_bytes);
}

TEST(BlockCacheTest, NeverEvictsTheEntryJustInserted) {
  BlockCache cache(CostOf(1), /*num_shards=*/1);  // Smaller than the block.
  const std::uint64_t tag = BlockCache::NextSegmentTag();
  BlockCache::BlockPtr huge = BlockOf(100);
  cache.Put(tag, 0, huge);
  // Over capacity, but the sole entry survives to serve its next lookup.
  EXPECT_EQ(cache.Get(tag, 0), huge);
}

TEST(BlockCacheTest, ShardsSmallerThanAnEntryHoldOneEntryEach) {
  // Each of 8 shards has room for half of the largest entry. Keeping the
  // entry just inserted means every shard holds exactly one entry, so the
  // cache may exceed its capacity, but never by more than one entry per
  // shard.
  constexpr std::size_t kShards = 8;
  constexpr std::size_t kLargest = 100;
  BlockCache cache(kShards * CostOf(kLargest) / 2, kShards);
  const std::uint64_t tag = BlockCache::NextSegmentTag();
  std::uint64_t peak = 0;
  for (std::uint32_t index = 0; index < 64; ++index) {
    cache.Put(tag, index, BlockOf(kLargest - index % 3));
    const BlockCache::Stats stats = cache.GetStats();
    EXPECT_LE(stats.bytes, kShards * CostOf(kLargest)) << "put " << index;
    peak = std::max(peak, stats.bytes);
  }
  const BlockCache::Stats stats = cache.GetStats();
  EXPECT_GT(peak, stats.capacity_bytes);  // The overshoot the rule allows.
  const std::uint64_t resident = 64 - stats.evictions;
  EXPECT_LE(resident, kShards);
  EXPECT_GE(stats.bytes, resident * CostOf(kLargest - 2));
}

TEST(BlockCacheTest, EvictedBlockOutlivesEvictionWhileHeld) {
  BlockCache cache(CostOf(1), /*num_shards=*/1);
  const std::uint64_t tag = BlockCache::NextSegmentTag();
  cache.Put(tag, 0, BlockOf(1));
  BlockCache::BlockPtr held = cache.Get(tag, 0);
  ASSERT_NE(held, nullptr);
  cache.Put(tag, 1, BlockOf(1));  // Evicts key 0.
  EXPECT_EQ(cache.Get(tag, 0), nullptr);
  EXPECT_EQ(held->events().size(), 1u);  // The shared_ptr keeps it alive.
}

TEST(BlockCacheTest, ConcurrentGetPut) {
  BlockCache cache(8 * CostOf(2), /*num_shards=*/4);
  const std::uint64_t tag = BlockCache::NextSegmentTag();
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (std::uint32_t round = 0; round < 200; ++round) {
        const std::uint32_t index = round % 16;
        if (cache.Get(tag, index) == nullptr) {
          cache.Put(tag, index, BlockOf(2));
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const BlockCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.lookups, kThreads * 200u);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
}

/// SampleStream with a second item and more containment interleaved, so
/// every object's location and containment events sit between other
/// objects' events.
EventStream InterleavedStream() {
  return {
      Event::StartLocation(kItem, 4, 10),
      Event::StartLocation(kItem2, 5, 10),
      Event::StartLocation(kCase, 4, 10),
      Event::StartContainment(kItem, kCase, 12),
      Event::StartContainment(kItem2, kCase, 13),
      Event::StartContainment(kCase, kPallet, 15),
      Event::EndLocation(kItem, 4, 10, 20),
      Event::Missing(kItem, 4, 20),
      Event::EndLocation(kItem2, 5, 10, 22),
      Event::StartLocation(kItem2, 7, 22),
      Event::StartLocation(kItem, 7, 25),
      Event::EndContainment(kItem2, kCase, 13, 28),
      Event::EndContainment(kCase, kPallet, 15, 30),
      Event::EndContainment(kItem, kCase, 12, 40),
      Event::EndLocation(kItem, 7, 25, 50),
      Event::Missing(kItem, 7, 50),
      Event::EndLocation(kItem2, 7, 22, 55),
      Event::EndLocation(kCase, 4, 10, 60),
  };
}

/// The positions a plain scan of `events` selects for `object`.
std::vector<std::uint32_t> ScanPositions(const EventStream& events,
                                         ObjectId object) {
  std::vector<std::uint32_t> positions;
  for (std::uint32_t i = 0; i < events.size(); ++i) {
    if (events[i].object == object) positions.push_back(i);
  }
  return positions;
}

std::vector<std::uint32_t> IndexPositions(const DecodedBlock& block,
                                          ObjectId object) {
  const std::span<const std::uint32_t> positions = block.PositionsOf(object);
  return {positions.begin(), positions.end()};
}

/// The positions a plain scan of `events` selects for ContentsAt(container).
std::vector<std::uint32_t> ScanContainmentPositions(const EventStream& events,
                                                    ObjectId container) {
  std::vector<std::uint32_t> positions;
  for (std::uint32_t i = 0; i < events.size(); ++i) {
    if (IsContainmentEvent(events[i].type) &&
        events[i].container == container) {
      positions.push_back(i);
    }
  }
  return positions;
}

/// The container part of `block`'s index for `container`; fails the test
/// when the index is not built.
std::vector<std::uint32_t> IndexContainmentPositions(const DecodedBlock& block,
                                                     ObjectId container) {
  const auto positions = block.IndexedContainmentPositionsOf(container);
  EXPECT_TRUE(positions.has_value()) << container;
  if (!positions.has_value()) return {};
  return {positions->begin(), positions->end()};
}

TEST(BlockCacheTest, ObjectIndexMatchesScanOnInterleavedBlock) {
  const DecodedBlock block(InterleavedStream());
  for (ObjectId object : {kItem, kItem2, kCase}) {
    const std::vector<std::uint32_t> expected =
        ScanPositions(block.events(), object);
    EXPECT_FALSE(expected.empty());
    EXPECT_EQ(IndexPositions(block, object), expected) << object;
  }
}

TEST(BlockCacheTest, ObjectIndexOfAbsentKeyIsEmpty) {
  const DecodedBlock block(InterleavedStream());
  // kPallet is only ever a container; the others fall below, between and
  // above the indexed objects.
  for (ObjectId object : {kPallet, ObjectId{0}, Obj(PackagingLevel::kItem, 99),
                          kCase + 1, kNoObject}) {
    ASSERT_TRUE(ScanPositions(block.events(), object).empty());
    EXPECT_TRUE(block.PositionsOf(object).empty()) << object;
  }
  EXPECT_TRUE(DecodedBlock(EventStream{}).PositionsOf(kItem).empty());
}

TEST(BlockCacheTest, ContainerIndexRidesOnTheObjectIndex) {
  const DecodedBlock block(InterleavedStream());
  // A container lookup never builds the index.
  EXPECT_FALSE(block.IndexedContainmentPositionsOf(kCase).has_value());
  EXPECT_FALSE(block.IndexedContainmentPositionsOf(kCase).has_value());
  EXPECT_FALSE(block.PositionsOf(kItem).empty());
  // kPallet is only a container, kCase both a container and an object.
  for (ObjectId container : {kCase, kPallet}) {
    const std::vector<std::uint32_t> expected =
        ScanContainmentPositions(block.events(), container);
    EXPECT_FALSE(expected.empty());
    EXPECT_EQ(IndexContainmentPositions(block, container), expected)
        << container;
  }
  // Absent containers: objects that contain nothing, keys outside the
  // block, and kNoObject, which location events carry as their container.
  for (ObjectId container : {kItem, kItem2, ObjectId{0}, kPallet + 1,
                             Obj(PackagingLevel::kItem, 99), kNoObject}) {
    ASSERT_TRUE(ScanContainmentPositions(block.events(), container).empty());
    EXPECT_TRUE(IndexContainmentPositions(block, container).empty())
        << container;
  }
  const DecodedBlock empty{EventStream{}};
  EXPECT_TRUE(empty.PositionsOf(kItem).empty());
  EXPECT_TRUE(IndexContainmentPositions(empty, kCase).empty());
}

TEST(BlockCacheTest, ConcurrentFirstUseOfOneBlocksIndex) {
  constexpr int kThreads = 4;
  const std::vector<ObjectId> objects{kItem, kItem2, kCase, kPallet};
  for (int trial = 0; trial < 20; ++trial) {
    const auto block =
        std::make_shared<const DecodedBlock>(InterleavedStream());
    std::atomic<int> ready{0};
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        // Line the threads up so their first lookups race on the build.
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        for (std::size_t k = 0; k < objects.size(); ++k) {
          const ObjectId object = objects[(t + k) % objects.size()];
          if (IndexPositions(*block, object) !=
              ScanPositions(block->events(), object)) {
            ++mismatches[t];
          }
          // Published with the object part: visible once PositionsOf
          // returns, whichever thread built it.
          const auto contained =
              block->IndexedContainmentPositionsOf(object);
          if (!contained.has_value() ||
              std::vector<std::uint32_t>(contained->begin(),
                                         contained->end()) !=
                  ScanContainmentPositions(block->events(), object)) {
            ++mismatches[t];
          }
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
  }
}

TEST(BlockCacheTest, BytesChargeTheIndexBound) {
  BlockCache cache(1 << 20, /*num_shards=*/1);
  const std::uint64_t tag = BlockCache::NextSegmentTag();
  const auto block =
      std::make_shared<const DecodedBlock>(InterleavedStream());
  const std::size_t n = block->events().size();
  cache.Put(tag, 0, block);
  // One object position per event, at most one container position per
  // event, and a slot table with room for both kinds of key.
  const std::uint64_t index_bytes =
      (2 * n + std::bit_ceil(2 * n + 1)) * sizeof(std::uint32_t);
  const std::uint64_t charged =
      n * sizeof(Event) + index_bytes + BlockCache::kEntryOverheadBytes;
  EXPECT_EQ(cache.GetStats().bytes, charged);
  // Charged up front, so building the index moves nothing.
  EXPECT_FALSE(block->PositionsOf(kItem).empty());
  EXPECT_EQ(cache.GetStats().bytes, charged);
}

// Object- and container-keyed answers served through the cache (the index
// paths) equal an uncached log's (the plain scan) and the materialized
// EventLog's, with every object's events interleaved with others' in one
// block and across several. Container lookups run first in each round:
// the first round scans unindexed blocks, the second reads the container
// index the object lookups built.
TEST(ObjectIndexCacheTest, AnswersEqualPlainScan) {
  const std::vector<ObjectId> objects{kItem, kItem2, kCase, kPallet,
                                      Obj(PackagingLevel::kItem, 99)};
  for (std::size_t block_events : {std::size_t{64}, std::size_t{5}}) {
    const std::string path = ::testing::TempDir() + "/object_index.sparc";
    std::error_code ec;
    std::filesystem::remove(path, ec);
    std::filesystem::remove(IndexPathFor(path), ec);
    ArchiveOptions options;
    options.block_events = block_events;
    auto writer = ArchiveWriter::Open(path, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(InterleavedStream()).ok());
    ASSERT_TRUE(writer.value()->Close().ok());

    auto cache = std::make_shared<BlockCache>(1 << 20);
    auto indexed = SegmentLog::Open(path, ReaderOptions{}, cache);
    auto scanned = SegmentLog::Open(path);
    ASSERT_TRUE(indexed.ok());
    ASSERT_TRUE(scanned.ok());
    auto baseline =
        EventLog::FromArchive(scanned.value()->reader(), 0, kInfiniteEpoch);
    ASSERT_TRUE(baseline.ok());
    const SegmentLog& a = *indexed.value();
    const SegmentLog& b = *scanned.value();
    // Twice, so the second round is served from warm, indexed blocks.
    for (int round = 0; round < 2; ++round) {
      for (ObjectId container : {kCase, kPallet, kItem}) {
        for (Epoch epoch = 0; epoch <= 70; ++epoch) {
          for (bool transitive : {false, true}) {
            EXPECT_EQ(a.ContentsAt(container, epoch, transitive).value(),
                      b.ContentsAt(container, epoch, transitive).value());
            EXPECT_EQ(a.ContentsAt(container, epoch, transitive).value(),
                      baseline.value().ContentsAt(container, epoch,
                                                  transitive));
          }
        }
      }
      for (ObjectId object : objects) {
        EXPECT_EQ(a.TrajectoryOf(object).value(),
                  b.TrajectoryOf(object).value());
        EXPECT_EQ(a.TrajectoryOf(object).value(),
                  baseline.value().TrajectoryOf(object));
        for (Epoch epoch = 0; epoch <= 70; ++epoch) {
          EXPECT_EQ(a.LocationAt(object, epoch).value(),
                    b.LocationAt(object, epoch).value());
          EXPECT_EQ(a.LocationAt(object, epoch).value(),
                    baseline.value().LocationAt(object, epoch));
          EXPECT_EQ(a.ContainerAt(object, epoch).value(),
                    b.ContainerAt(object, epoch).value());
          EXPECT_EQ(a.ContainerAt(object, epoch).value(),
                    baseline.value().ContainerAt(object, epoch));
          EXPECT_EQ(a.IsMissingAt(object, epoch).value(),
                    b.IsMissingAt(object, epoch).value());
          EXPECT_EQ(a.IsMissingAt(object, epoch).value(),
                    baseline.value().IsMissingAt(object, epoch));
        }
      }
    }
    const BlockCache::Stats stats = cache->GetStats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
    EXPECT_LE(a.blocks_decoded(), stats.misses);
    std::filesystem::remove(path, ec);
    std::filesystem::remove(IndexPathFor(path), ec);
  }
}

TEST(EventLogEndToEndTest, QueriesMatchGroundTruth) {
  // Run SPIRE at a perfect read rate over a small trace; the level-2 log
  // (decompressed on build) must answer resides/contained queries in
  // agreement with the simulator's world away from transition moments.
  SimConfig config;
  config.duration_epochs = 1500;
  config.pallet_interval = 400;
  config.min_cases_per_pallet = 2;
  config.max_cases_per_pallet = 2;
  config.items_per_case = 4;
  config.mean_shelf_stay = 400;
  config.shelf_period = 20;
  config.read_rate = 1.0;
  auto sim = WarehouseSimulator::Create(config);
  WarehouseSimulator& s = *sim.value();
  PipelineOptions options;
  options.level = CompressionLevel::kLevel2;
  SpirePipeline pipeline(&s.registry(), options);
  EventStream level2;
  // Snapshot the truth at a few probe epochs.
  std::map<Epoch, std::map<ObjectId, std::pair<LocationId, ObjectId>>> probes;
  while (!s.Done()) {
    EpochReadings readings = s.Step();
    pipeline.ProcessEpoch(s.current_epoch(), std::move(readings), &level2);
    if (s.current_epoch() % 500 == 499) {
      auto& snapshot = probes[s.current_epoch()];
      for (const auto& [id, state] : s.world().objects()) {
        snapshot[id] = {state.location, state.parent};
      }
    }
  }
  pipeline.Finish(s.current_epoch() + 1, &level2);

  auto log = EventLog::Build(level2, /*decompress=*/true);
  ASSERT_TRUE(log.ok());
  std::size_t queries = 0, agree = 0;
  LocationId entry = s.layout().entry_door;
  for (const auto& [epoch, snapshot] : probes) {
    for (const auto& [object, truth] : snapshot) {
      const auto& [location, parent] = truth;
      if (location == entry) continue;  // No output for the warm-up area.
      ++queries;
      if (log.value().LocationAt(object, epoch) == location &&
          log.value().ContainerAt(object, epoch) == parent) {
        ++agree;
      }
    }
  }
  ASSERT_GT(queries, 20u);
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(queries), 0.9);
}

}  // namespace
}  // namespace spire
