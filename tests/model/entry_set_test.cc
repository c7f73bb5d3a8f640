#include "model/entry_set.h"

#include <gtest/gtest.h>

namespace ldapbound {
namespace {

TEST(EntrySetTest, InsertEraseContains) {
  EntrySet set(200);
  EXPECT_TRUE(set.Empty());
  set.Insert(0);
  set.Insert(63);
  set.Insert(64);
  set.Insert(199);
  EXPECT_TRUE(set.Contains(0));
  EXPECT_TRUE(set.Contains(63));
  EXPECT_TRUE(set.Contains(64));
  EXPECT_TRUE(set.Contains(199));
  EXPECT_FALSE(set.Contains(1));
  EXPECT_FALSE(set.Contains(500));  // out of capacity: false, not UB
  EXPECT_EQ(set.Count(), 4u);
  set.Erase(63);
  EXPECT_FALSE(set.Contains(63));
  EXPECT_EQ(set.Count(), 3u);
}

TEST(EntrySetTest, SetAlgebra) {
  EntrySet a(128), b(128);
  a.Insert(1);
  a.Insert(2);
  a.Insert(100);
  b.Insert(2);
  b.Insert(3);

  EntrySet u = a;
  u.UnionWith(b);
  EXPECT_EQ(u.Count(), 4u);

  EntrySet i = a;
  i.IntersectWith(b);
  EXPECT_EQ(i.Count(), 1u);
  EXPECT_TRUE(i.Contains(2));

  EntrySet d = a;
  d.SubtractFrom(b);
  EXPECT_EQ(d.Count(), 2u);
  EXPECT_TRUE(d.Contains(1));
  EXPECT_TRUE(d.Contains(100));
  EXPECT_FALSE(d.Contains(2));
}

TEST(EntrySetTest, ForEachAscending) {
  EntrySet set(300);
  for (EntryId id : {250u, 3u, 64u, 65u}) set.Insert(id);
  std::vector<EntryId> seen;
  set.ForEach([&](EntryId id) { seen.push_back(id); });
  EXPECT_EQ(seen, (std::vector<EntryId>{3, 64, 65, 250}));
  EXPECT_EQ(set.ToVector(), seen);
}

TEST(EntrySetTest, ClearAndEquality) {
  EntrySet a(64), b(64);
  a.Insert(5);
  EXPECT_FALSE(a == b);
  a.Clear();
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(a.Empty());
}

TEST(EntrySetTest, CapacityZero) {
  EntrySet set;
  EXPECT_TRUE(set.Empty());
  EXPECT_EQ(set.Count(), 0u);
  EXPECT_FALSE(set.Contains(0));
}

// Regression: Insert/Erase used to index words_ without a capacity guard,
// so an out-of-range id scribbled past the bitmap (capacity 100 rounds up
// to two words = bits [0, 128); id 130 indexed a third, nonexistent word).
TEST(EntrySetTest, InsertEraseOutOfRangeIgnored) {
  EntrySet set(100);
  set.Insert(100);  // first id past capacity
  set.Insert(127);  // in-bounds of the last word, out of capacity
  set.Insert(130);  // past the last word entirely
  set.Insert(kInvalidEntryId);
  EXPECT_TRUE(set.Empty());
  EXPECT_EQ(set.Count(), 0u);
  set.Insert(99);
  set.Erase(100);
  set.Erase(130);
  set.Erase(kInvalidEntryId);
  EXPECT_EQ(set.Count(), 1u);
  EXPECT_TRUE(set.Contains(99));

  EntrySet empty;
  empty.Insert(0);  // zero-word bitmap: must not touch words_[0]
  EXPECT_TRUE(empty.Empty());
}

TEST(EntrySetTest, Intersects) {
  EntrySet a(256), b(256);
  EXPECT_FALSE(a.Intersects(b));
  a.Insert(63);
  b.Insert(64);  // adjacent ids in different words
  EXPECT_FALSE(a.Intersects(b));
  EXPECT_FALSE(b.Intersects(a));
  b.Insert(63);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  b.Erase(63);
  a.Insert(127);
  b.Insert(127);  // overlap only in the last bit of word 1
  EXPECT_TRUE(a.Intersects(b));
}

TEST(EntrySetTest, IsSubsetOf) {
  EntrySet a(256), b(256);
  EXPECT_TRUE(a.IsSubsetOf(b));  // empty ⊆ empty
  b.Insert(5);
  b.Insert(64);
  b.Insert(127);
  EXPECT_TRUE(a.IsSubsetOf(b));  // empty ⊆ b
  EXPECT_FALSE(b.IsSubsetOf(a));
  a.Insert(64);
  a.Insert(127);
  EXPECT_TRUE(a.IsSubsetOf(b));
  a.Insert(128);  // word 2, absent from b
  EXPECT_FALSE(a.IsSubsetOf(b));
  EXPECT_TRUE(a.IsSubsetOf(a));
}

TEST(EntrySetTest, ForEachWhile) {
  EntrySet set(200);
  for (EntryId id : {3u, 63u, 64u, 150u}) set.Insert(id);
  // Runs to completion when fn never stops.
  std::vector<EntryId> seen;
  EXPECT_TRUE(set.ForEachWhile([&](EntryId id) {
    seen.push_back(id);
    return true;
  }));
  EXPECT_EQ(seen, (std::vector<EntryId>{3, 63, 64, 150}));
  // Stops at the first id >= 64 and reports early exit.
  seen.clear();
  EXPECT_FALSE(set.ForEachWhile([&](EntryId id) {
    seen.push_back(id);
    return id < 64;
  }));
  EXPECT_EQ(seen, (std::vector<EntryId>{3, 63, 64}));
}

}  // namespace
}  // namespace ldapbound
