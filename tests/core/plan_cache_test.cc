// SharedPlanCache tests: one compilation per (text, plan_epoch) across
// callers, monotone-epoch installs (under online updates and for readers
// pinned to an older snapshot), parse reuse across epoch moves, LRU
// bounding, and Sessions built over a borrowed cache.

#include "core/plan_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dual_store.h"
#include "core/online_store.h"
#include "core/session.h"
#include "core/update.h"
#include "sparql/bindings.h"
#include "sparql/parser.h"
#include "test_util.h"

namespace dskg::core {
namespace {

using sparql::BindingTable;

constexpr const char* kFlagship =
    "SELECT ?p WHERE { ?p bornIn berlin . "
    "?p advisor ?a . ?a bornIn berlin . }";
constexpr const char* kScan = "SELECT ?p ?c WHERE { ?p bornIn ?c . }";

/// A one-shot caller: looks `text` up and plans it for `store`.
Result<std::shared_ptr<const PreparedPlan>> Plan(SharedPlanCache* cache,
                                                 std::string_view text,
                                                 const DualStore& store) {
  DSKG_ASSIGN_OR_RETURN(std::shared_ptr<const PlanEntry> entry,
                        cache->Lookup(text));
  return cache->PlanFor(*entry, store);
}

TEST(SharedPlanCacheTest, OnePrepareAcrossCallers) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStore store(&ds, {});
  SharedPlanCache cache;

  auto first = Plan(&cache, kFlagship, store);
  ASSERT_TRUE(first.ok());
  auto second = Plan(&cache, kFlagship, store);
  ASSERT_TRUE(second.ok());
  // Same epoch, same text: the very same plan object is served.
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().parses, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedPlanCacheTest, CallerCountedParseSkipsTheCacheCounter) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStore store(&ds, {});
  SharedPlanCache cache;

  bool parsed = false;
  auto entry = cache.Lookup(kFlagship, &parsed);
  ASSERT_TRUE(entry.ok());
  EXPECT_TRUE(parsed);
  auto again = cache.Lookup(kFlagship, &parsed);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(parsed);
  EXPECT_EQ(entry->get(), again->get());
  EXPECT_EQ((*entry)->params, (*entry)->query.Parameters());

  ASSERT_TRUE(cache.PlanFor(**entry, store).ok());
  EXPECT_EQ(cache.stats().parses, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(SharedPlanCacheTest, OlderPinnedReaderNeverOverwritesNewerPlan) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStore store(&ds, {});
  SharedPlanCache cache;
  auto entry = cache.Lookup(kFlagship);
  ASSERT_TRUE(entry.ok());

  const DualStore::Snapshot at_e = store.MakeSnapshot();
  const uint64_t e = at_e.plan_epoch;
  store.ForcePlanEpoch(e + 1);
  auto newer = cache.PlanFor(**entry, store);
  ASSERT_TRUE(newer.ok());
  ASSERT_EQ((*newer)->plan_epoch, e + 1);

  {
    // A reader pinned at E gets a plan for E...
    DualStore::SnapshotScope scope(&at_e);
    bool replanned = false;
    auto older = cache.PlanFor(**entry, store, &replanned);
    ASSERT_TRUE(older.ok());
    EXPECT_EQ((*older)->plan_epoch, e);
    EXPECT_TRUE(replanned);
  }
  // ...and the entry still holds E+1: the next current reader hits it.
  auto current = cache.PlanFor(**entry, store);
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->get(), newer->get());
  const SharedPlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.invalidations, 0u);
}

TEST(SharedPlanCacheTest, ParseErrorSurfaces) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStore store(&ds, {});
  SharedPlanCache cache;
  auto r = Plan(&cache, "SELEC nope", store);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SharedPlanCacheTest, EpochMoveInvalidatesButReusesParse) {
  rdf::Dataset initial = testing::SmallPeopleGraph();
  OnlineStore store(initial, {});
  SharedPlanCache cache;

  std::shared_ptr<const PreparedPlan> plan_before;
  uint64_t epoch_before = 0;
  {
    auto guard = store.Read();
    auto before = Plan(&cache, kFlagship, guard.store());
    ASSERT_TRUE(before.ok());
    plan_before = *before;
    epoch_before = plan_before->plan_epoch;
  }  // drop the pin so the applier can reclaim

  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::Insert("eve", "bornIn", "berlin"));
  batch.ops.push_back(UpdateOp::Insert("eve", "advisor", "alice"));
  ASSERT_TRUE(store.ApplyUpdates(batch).ok());

  auto guard2 = store.Read();
  ASSERT_GT(guard2.store().plan_epoch(), epoch_before);
  auto after = Plan(&cache, kFlagship, guard2.store());
  ASSERT_TRUE(after.ok());
  EXPECT_GT((*after)->plan_epoch, epoch_before);
  EXPECT_NE(plan_before.get(), after->get());

  const SharedPlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.invalidations, 1u);
  // The epoch move re-planned without re-parsing.
  EXPECT_EQ(s.parses, 1u);
  // The caller's old shared_ptr stays valid after replacement.
  EXPECT_EQ(plan_before->plan_epoch, epoch_before);
}

TEST(SharedPlanCacheTest, LruBoundEvictsOldestText) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStore store(&ds, {});
  SharedPlanCache cache(/*capacity=*/2);

  ASSERT_TRUE(Plan(&cache, kFlagship, store).ok());
  ASSERT_TRUE(Plan(&cache, kScan, store).ok());
  // Touch the flagship so the scan is the LRU victim.
  ASSERT_TRUE(Plan(&cache, kFlagship, store).ok());
  ASSERT_TRUE(
      Plan(&cache, "SELECT ?a WHERE { ?p advisor ?a . }", store).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // The evicted scan re-prepares (a miss), the retained flagship hits.
  const uint64_t misses_before = cache.stats().misses;
  ASSERT_TRUE(Plan(&cache, kFlagship, store).ok());
  EXPECT_EQ(cache.stats().misses, misses_before);
  ASSERT_TRUE(Plan(&cache, kScan, store).ok());
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST(SharedPlanCacheTest, ConcurrentCallersAllGetValidPlans) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStore store(&ds, {});
  SharedPlanCache cache;

  constexpr int kThreads = 8;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const char* text = (t % 2 == 0) ? kFlagship : kScan;
      for (int i = 0; i < 50; ++i) {
        auto plan = Plan(&cache, text, store);
        if (plan.ok() && (*plan)->plan_epoch == store.plan_epoch()) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok_count.load(), kThreads * 50);
  const SharedPlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, static_cast<uint64_t>(kThreads) * 50);
  // Lost prepare races cost duplicate work, never a wrong answer.
  EXPECT_GE(s.misses, 2u);
}

TEST(SharedPlanCacheTest, SessionsShareOneCompilation) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStore store(&ds, {});
  SharedPlanCache cache;

  Session alice(&store, nullptr, &cache);
  Session bob(&store, nullptr, &cache);
  EXPECT_EQ(&alice.plan_cache(), &cache);

  auto a = alice.Execute(kFlagship);
  ASSERT_TRUE(a.ok());
  auto b = bob.Execute(kFlagship);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(BindingTable::SameRows(a->result, b->result));

  // Alice parsed and compiled; Bob found the entry and hit its plan.
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(alice.stats().prepares, 1u);
  EXPECT_EQ(bob.stats().cache_hits, 1u);
  // The sessions counted the one parse; the cache does not count it again.
  EXPECT_EQ(cache.stats().parses, 0u);

  // Re-execution is a pointer compare on the shared entry: a hit, never
  // a second compilation.
  auto prepared = alice.Prepare(kFlagship);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->ExecuteAll().ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);

  // A session with a cache of its own still produces identical rows.
  Session lone(&store);
  auto c = lone.Execute(kFlagship);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(BindingTable::SameRows(a->result, c->result));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(lone.plan_cache().stats().misses, 1u);
}

TEST(SharedPlanCacheTest, SessionRevalidatesThroughSharedCacheOnUpdates) {
  rdf::Dataset initial = testing::SmallPeopleGraph();
  OnlineStore store(initial, {});
  SharedPlanCache cache;
  Session session(&store, nullptr, &cache);

  auto prepared = session.Prepare(kFlagship);
  ASSERT_TRUE(prepared.ok());
  auto before = prepared->ExecuteAll();
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->result.NumRows(), 1u);

  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::Insert("eve", "bornIn", "berlin"));
  batch.ops.push_back(UpdateOp::Insert("eve", "advisor", "alice"));
  ASSERT_TRUE(store.ApplyUpdates(batch).ok());

  auto after = prepared->ExecuteAll();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->result.NumRows(), 2u);
  EXPECT_GE(session.stats().replans, 1u);
  EXPECT_GE(cache.stats().invalidations, 1u);
}

}  // namespace
}  // namespace dskg::core
