#include "model/forest_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "model/directory.h"
#include "tests/testing/helpers.h"
#include "workload/random_gen.h"

namespace ldapbound {

// Writes a label directly, so a test can break an invariant the
// maintenance code never breaks and check that EquivalentToFresh sees it.
class ForestIndexTestPeer {
 public:
  static void SetEndLabel(Directory& d, EntryId id, uint64_t value) {
    const_cast<ForestIndex&>(d.GetIndex()).end_labels_.Set(id, value);
  }
};

namespace {

using testing::AddBare;
using testing::SimpleWorld;

// Alive entries sorted by label: the preorder the labels encode.
std::vector<EntryId> LabelOrder(const Directory& d) {
  std::vector<EntryId> ids;
  d.ForEachAlive([&](const Entry& e) { ids.push_back(e.id()); });
  const ForestIndex& idx = d.GetIndex();
  std::sort(ids.begin(), ids.end(), [&](EntryId x, EntryId y) {
    return idx.label(x) < idx.label(y);
  });
  return ids;
}

TEST(ForestIndexTest, PreorderAndIntervals) {
  SimpleWorld w;
  Directory d(w.vocab);
  // r
  // ├── a
  // │   ├── a1
  // │   └── a2
  // └── b
  EntryId r = AddBare(d, kInvalidEntryId, "o=r", {w.top});
  EntryId a = AddBare(d, r, "ou=a", {w.top});
  EntryId a1 = AddBare(d, a, "uid=a1", {w.top});
  EntryId a2 = AddBare(d, a, "uid=a2", {w.top});
  EntryId b = AddBare(d, r, "ou=b", {w.top});

  const ForestIndex& idx = d.GetIndex();
  EXPECT_EQ(LabelOrder(d), (std::vector<EntryId>{r, a, a1, a2, b}));
  // Each interval holds exactly its subtree.
  EXPECT_LT(idx.label(b), idx.end_label(r));
  EXPECT_LT(idx.label(a2), idx.end_label(a));
  EXPECT_GE(idx.label(b), idx.end_label(a));
  EXPECT_GE(idx.label(a2), idx.end_label(a1));
  EXPECT_TRUE(idx.EquivalentToFresh(d));
  EXPECT_EQ(idx.depth(r), 0u);
  EXPECT_EQ(idx.depth(a), 1u);
  EXPECT_EQ(idx.depth(a1), 2u);
}

TEST(ForestIndexTest, IsAncestor) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId r = AddBare(d, kInvalidEntryId, "o=r", {w.top});
  EntryId a = AddBare(d, r, "ou=a", {w.top});
  EntryId a1 = AddBare(d, a, "uid=a1", {w.top});
  EntryId b = AddBare(d, r, "ou=b", {w.top});

  const ForestIndex& idx = d.GetIndex();
  EXPECT_TRUE(idx.IsAncestor(r, a1));
  EXPECT_TRUE(idx.IsAncestor(a, a1));
  EXPECT_FALSE(idx.IsAncestor(a1, a));
  EXPECT_FALSE(idx.IsAncestor(a, b));
  EXPECT_FALSE(idx.IsAncestor(a, a));  // proper ancestry only
}

TEST(ForestIndexTest, MultipleRoots) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId r1 = AddBare(d, kInvalidEntryId, "o=r1", {w.top});
  EntryId r2 = AddBare(d, kInvalidEntryId, "o=r2", {w.top});
  EntryId c = AddBare(d, r2, "ou=c", {w.top});
  const ForestIndex& idx = d.GetIndex();
  EXPECT_EQ(LabelOrder(d), (std::vector<EntryId>{r1, r2, c}));
  EXPECT_FALSE(idx.IsAncestor(r1, c));
  EXPECT_TRUE(idx.IsAncestor(r2, c));
}

// A last child whose interval overhangs its parent's, but still ends
// before the next subtree's first label, breaks nesting alone.
TEST(ForestIndexTest, EquivalentToFreshRejectsChildOverhangingParent) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId r1 = AddBare(d, kInvalidEntryId, "o=r1", {w.top});
  EntryId c = AddBare(d, r1, "ou=c", {w.top});
  EntryId r2 = AddBare(d, kInvalidEntryId, "o=r2", {w.top});
  const ForestIndex& idx = d.GetIndex();
  // Shrink r1's interval to end with c's; that is still a valid labeling
  // and leaves a gap before r2 for c to overhang into.
  uint64_t c_end = idx.end_label(c);
  ASSERT_LT(c_end, idx.label(r2));
  ForestIndexTestPeer::SetEndLabel(d, r1, c_end);
  ASSERT_TRUE(idx.EquivalentToFresh(d));
  ForestIndexTestPeer::SetEndLabel(d, c, c_end + 1);
  EXPECT_FALSE(idx.EquivalentToFresh(d));
}

TEST(ForestIndexTest, RebuildsAfterDeletion) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId r = AddBare(d, kInvalidEntryId, "o=r", {w.top});
  EntryId a = AddBare(d, r, "ou=a", {w.top});
  EntryId b = AddBare(d, r, "ou=b", {w.top});
  EXPECT_EQ(d.GetIndex().num_entries(), 3u);
  ASSERT_TRUE(d.DeleteLeaf(a).ok());
  const ForestIndex& idx = d.GetIndex();
  EXPECT_EQ(LabelOrder(d), (std::vector<EntryId>{r, b}));
  EXPECT_EQ(idx.label(a), ForestIndex::kNoLabel);
  EXPECT_FALSE(idx.IsAncestor(r, a));
}

// Property: on random forests, IsAncestor agrees with walking parent
// pointers, for every pair.
TEST(ForestIndexTest, PropertyAgreesWithParentWalk) {
  auto vocab = std::make_shared<Vocabulary>();
  std::vector<ClassId> palette{vocab->top_class()};
  for (uint64_t seed : {1u, 2u, 3u}) {
    RandomForestOptions options;
    options.num_entries = 60;
    options.seed = seed;
    Directory d = MakeRandomForest(vocab, palette, options);
    const ForestIndex& idx = d.GetIndex();
    for (EntryId a = 0; a < d.IdCapacity(); ++a) {
      for (EntryId b = 0; b < d.IdCapacity(); ++b) {
        bool expected = false;
        EntryId cur = d.entry(b).parent();
        while (cur != kInvalidEntryId) {
          if (cur == a) {
            expected = true;
            break;
          }
          cur = d.entry(cur).parent();
        }
        EXPECT_EQ(idx.IsAncestor(a, b), expected)
            << "a=" << a << " b=" << b << " seed=" << seed;
      }
    }
  }
}

}  // namespace
}  // namespace ldapbound
