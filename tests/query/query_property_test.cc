// Property tests: both evaluators — QueryEvaluator on the live directory
// and SnapshotEvaluator on a pinned snapshot — must agree with a
// brute-force quadratic interpretation of hierarchical selection queries
// on random forests, for every axis and for the set operators, in both
// the evaluate and the lazy-emptiness form. Every hierarchy node must also
// keep Theorem 3.1's per-node O(|D|) cost.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "model/directory_snapshot.h"
#include "query/evaluator.h"
#include "query/snapshot_evaluator.h"
#include "query/value_index.h"
#include "workload/random_gen.h"

namespace ldapbound {
namespace {

// Brute-force reference: evaluates Hier by scanning all entry pairs and
// deciding relatedness with parent-pointer walks.
EntrySet BruteForce(const Directory& d, const Query& q,
                    const EntrySet* delta) {
  EntrySet out(d.IdCapacity());
  switch (q.kind()) {
    case Query::Kind::kSelect: {
      d.ForEachAlive([&](const Entry& e) {
        if (q.scope() == Scope::kEmpty) return;
        if (q.scope() == Scope::kDeltaOnly &&
            (delta == nullptr || !delta->Contains(e.id()))) {
          return;
        }
        if (q.scope() == Scope::kExcludeDelta && delta != nullptr &&
            delta->Contains(e.id())) {
          return;
        }
        if (q.matcher()->Matches(e)) out.Insert(e.id());
      });
      return out;
    }
    case Query::Kind::kHier: {
      EntrySet a = BruteForce(d, q.operands()[0], delta);
      EntrySet b = BruteForce(d, q.operands()[1], delta);
      auto related = [&](EntryId x, EntryId y) {
        switch (q.axis()) {
          case Axis::kChild:
            return d.entry(y).parent() == x;
          case Axis::kParent:
            return d.entry(x).parent() == y;
          case Axis::kDescendant: {
            EntryId cur = d.entry(y).parent();
            while (cur != kInvalidEntryId) {
              if (cur == x) return true;
              cur = d.entry(cur).parent();
            }
            return false;
          }
          case Axis::kAncestor: {
            EntryId cur = d.entry(x).parent();
            while (cur != kInvalidEntryId) {
              if (cur == y) return true;
              cur = d.entry(cur).parent();
            }
            return false;
          }
        }
        return false;
      };
      a.ForEach([&](EntryId x) {
        bool found = false;
        b.ForEach([&](EntryId y) {
          if (!found && x != y && related(x, y)) found = true;
        });
        if (found) out.Insert(x);
      });
      return out;
    }
    case Query::Kind::kDiff: {
      EntrySet lhs = BruteForce(d, q.operands()[0], delta);
      EntrySet rhs = BruteForce(d, q.operands()[1], delta);
      lhs.SubtractFrom(rhs);
      return lhs;
    }
    case Query::Kind::kUnion: {
      for (const Query& op : q.operands()) {
        EntrySet part = BruteForce(d, op, delta);
        out.UnionWith(part);
      }
      return out;
    }
    case Query::Kind::kIntersect: {
      if (q.operands().empty()) return d.AliveSet();
      out = BruteForce(d, q.operands()[0], delta);
      for (size_t i = 1; i < q.operands().size(); ++i) {
        EntrySet part = BruteForce(d, q.operands()[i], delta);
        out.IntersectWith(part);
      }
      return out;
    }
  }
  return out;
}

// A reference answer at one directory version: the members, and the
// sizes the per-node bound is stated in.
struct Reference {
  std::vector<EntryId> members;
  size_t num_alive = 0;
  size_t size_a = 0;  // operand sizes of a hierarchy node
  size_t size_b = 0;
};

Reference ReferenceFor(const Directory& d, const Query& q,
                       const EntrySet* delta) {
  Reference ref;
  ref.members = BruteForce(d, q, delta).ToVector();
  ref.num_alive = d.NumEntries();
  if (q.kind() == Query::Kind::kHier) {
    ref.size_a = BruteForce(d, q.operands()[0], delta).Count();
    ref.size_b = BruteForce(d, q.operands()[1], delta).Count();
  }
  return ref;
}

// Theorem 3.1's per-node bound on one hierarchy node, in both forms: its
// own work (the scan count minus what its two operands cost on their own)
// must stay within 2·|D| + |A| + |B|. `scanned(query, lazy)` runs a fresh
// evaluator and returns its entries_scanned.
template <typename Scanned>
void ExpectLinearHierNode(const Query& q, const Reference& ref,
                          Scanned scanned, const std::string& label) {
  const int64_t operands =
      static_cast<int64_t>(scanned(q.operands()[0], false)) +
      static_cast<int64_t>(scanned(q.operands()[1], false));
  const int64_t bound =
      static_cast<int64_t>(2 * ref.num_alive + ref.size_a + ref.size_b);
  for (bool lazy : {false, true}) {
    const int64_t own = static_cast<int64_t>(scanned(q, lazy)) - operands;
    EXPECT_LE(own, bound) << (lazy ? "[lazy cost] " : "[cost] ") << label
                          << " |D|=" << ref.num_alive << " |A|=" << ref.size_a
                          << " |B|=" << ref.size_b;
  }
}

// QueryEvaluator on the live directory against the reference: evaluate
// (scan and indexed), lazy emptiness, and the per-node bound.
void CheckLive(const Directory& d, const EntrySet* delta,
               const ValueIndex* index, const Query& q,
               const std::string& label) {
  const Reference ref = ReferenceFor(d, q, delta);
  QueryEvaluator evaluator(d, delta);
  EXPECT_EQ(evaluator.Evaluate(q).ToVector(), ref.members) << label;
  if (index != nullptr) {
    QueryEvaluator indexed(d, delta, index);
    EXPECT_EQ(indexed.Evaluate(q).ToVector(), ref.members)
        << "[indexed] " << label;
  }
  QueryEvaluator lazy(d, delta);
  EXPECT_EQ(lazy.IsEmpty(q), ref.members.empty()) << "[lazy] " << label;
  if (q.kind() != Query::Kind::kHier) return;
  ExpectLinearHierNode(
      q, ref,
      [&](const Query& sub, bool lazy_form) {
        QueryEvaluator fresh(d, delta);
        if (lazy_form) {
          (void)fresh.IsEmpty(sub);
        } else {
          (void)fresh.Evaluate(sub);
        }
        return fresh.stats().entries_scanned;
      },
      label);
}

// SnapshotEvaluator on a pinned snapshot against a reference taken at the
// snapshot's version.
void CheckSnapshot(const DirectorySnapshot& snap, const Query& q,
                   const Reference& ref, const std::string& label) {
  SnapshotEvaluator evaluator(snap);
  Result<EntrySet> got = evaluator.Evaluate(q);
  ASSERT_TRUE(got.ok()) << got.status().ToString() << " " << label;
  EXPECT_EQ(got->ToVector(), ref.members) << "[snapshot] " << label;
  SnapshotEvaluator lazy(snap);
  Result<bool> empty = lazy.IsEmpty(q);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString() << " " << label;
  EXPECT_EQ(*empty, ref.members.empty()) << "[snapshot lazy] " << label;
  if (q.kind() != Query::Kind::kHier) return;
  ExpectLinearHierNode(
      q, ref,
      [&](const Query& sub, bool lazy_form) {
        SnapshotEvaluator fresh(snap);
        EXPECT_TRUE(lazy_form ? fresh.IsEmpty(sub).ok()
                              : fresh.Evaluate(sub).ok());
        return fresh.stats().entries_scanned;
      },
      "[snapshot] " + label);
}

std::vector<ClassId> Palette(Vocabulary& vocab) {
  std::vector<ClassId> palette;
  for (const char* name : {"a", "b", "c", "d"}) {
    palette.push_back(vocab.InternClass(name));
  }
  return palette;
}

// Random structural churn: adds under random parents (or as new roots),
// leaf deletions and subtree moves.
void Churn(Directory& d, const std::vector<ClassId>& palette,
           std::mt19937_64& rng, int steps) {
  static uint64_t serial = 0;
  auto pick_alive = [&]() {
    std::vector<EntryId> alive;
    d.ForEachAlive([&](const Entry& e) { alive.push_back(e.id()); });
    if (alive.empty()) return kInvalidEntryId;
    return alive[std::uniform_int_distribution<size_t>(0, alive.size() - 1)(
        rng)];
  };
  for (int step = 0; step < steps; ++step) {
    switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
      case 0: {
        EntryId parent =
            std::uniform_int_distribution<int>(0, 9)(rng) == 0
                ? kInvalidEntryId
                : pick_alive();
        ClassId cls = palette[std::uniform_int_distribution<size_t>(
            0, palette.size() - 1)(rng)];
        ASSERT_TRUE(
            d.AddEntry(parent, "churn" + std::to_string(serial++), {cls}, {})
                .ok());
        break;
      }
      case 1: {
        EntryId id = pick_alive();
        if (id != kInvalidEntryId && d.entry(id).children().empty()) {
          ASSERT_TRUE(d.DeleteLeaf(id).ok());
        }
        break;
      }
      default: {
        EntryId id = pick_alive();
        EntryId to = std::uniform_int_distribution<int>(0, 9)(rng) == 0
                         ? kInvalidEntryId
                         : pick_alive();
        // Refused moves (into the own subtree, RDN clash) change nothing.
        if (id != kInvalidEntryId) (void)d.MoveSubtree(id, to);
        break;
      }
    }
  }
}

class QueryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryPropertyTest, EvaluatorAgreesWithBruteForce) {
  auto vocab = std::make_shared<Vocabulary>();
  std::vector<ClassId> palette = Palette(*vocab);
  RandomForestOptions options;
  options.num_entries = 120;
  options.seed = GetParam();
  options.max_classes_per_entry = 2;
  Directory d = MakeRandomForest(vocab, palette, options);

  // A delta: every third entry.
  EntrySet delta(d.IdCapacity());
  for (EntryId id = 0; id < d.IdCapacity(); id += 3) delta.Insert(id);
  ValueIndex index(d);

  auto check = [&](const Query& q) {
    CheckLive(d, &delta, &index, q,
              q.ToString(*vocab) + " seed=" + std::to_string(GetParam()));
  };
  for (ClassId x : palette) {
    for (ClassId y : palette) {
      for (Axis axis : kAllAxes) {
        Query hier = Query::Hier(axis, Query::Select(MatchClass(x)),
                                 Query::Select(MatchClass(y)));
        check(hier);
        check(Query::Diff(Query::Select(MatchClass(x)), hier));
        // Scoped variant (the Figure 5 building block).
        Query scoped = Query::Hier(
            axis, Query::Select(MatchClass(x), Scope::kDeltaOnly),
            Query::Select(MatchClass(y), Scope::kExcludeDelta));
        check(scoped);
      }
      check(Query::Union({Query::Select(MatchClass(x)),
                          Query::Select(MatchClass(y))}));
      check(Query::Intersect({Query::Select(MatchClass(x)),
                              Query::Select(MatchClass(y))}));
    }
  }
}

// SnapshotEvaluator against the same brute-force reference, on pinned
// snapshots of random forests after random adds, deletes and moves. The
// references are taken at publish time; the live directory then keeps
// churning, and the pinned version must not notice.
TEST_P(QueryPropertyTest, SnapshotEvaluatorAgreesWithBruteForce) {
  auto vocab = std::make_shared<Vocabulary>();
  std::vector<ClassId> palette = Palette(*vocab);
  RandomForestOptions options;
  options.num_entries = 120;
  options.seed = GetParam();
  options.max_classes_per_entry = 2;
  Directory d = MakeRandomForest(vocab, palette, options);
  d.EnableSnapshots();
  std::mt19937_64 rng(GetParam());

  std::vector<Query> queries;
  for (ClassId x : palette) {
    for (ClassId y : palette) {
      Query qx = Query::Select(MatchClass(x));
      Query qy = Query::Select(MatchClass(y));
      for (Axis axis : kAllAxes) {
        Query hier = Query::Hier(axis, qx, qy);
        queries.push_back(hier);
        queries.push_back(Query::Diff(qx, hier));
        queries.push_back(Query::Hier(axis, hier, qy));  // nested operand
      }
      queries.push_back(Query::Union({qx, qy}));
      queries.push_back(Query::Intersect({qx, qy}));
    }
  }
  queries.push_back(Query::Intersect({}));  // all alive entries

  for (int round = 0; round < 4; ++round) {
    Churn(d, palette, rng, 40);
    d.PublishSnapshot();
    PinnedSnapshot pin = d.PinSnapshot();
    ASSERT_TRUE(pin);
    std::vector<Reference> refs;
    for (const Query& q : queries) refs.push_back(ReferenceFor(d, q, nullptr));
    Churn(d, palette, rng, 20);  // the writer moves on

    for (size_t i = 0; i < queries.size(); ++i) {
      CheckSnapshot(*pin, queries[i], refs[i],
                    queries[i].ToString(*vocab) + " seed=" +
                        std::to_string(GetParam()) + " round=" +
                        std::to_string(round));
    }
    pin.Release();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

// Deep chains are where a walk without its stopping rule or its memo
// turns quadratic. A chain of 200 entries — root of class a, then b and c
// alternating — with a fan of 50 d-leaves at the bottom: every c walks to
// the root to find an a, every d is a descendant of every chain entry,
// and the d-leaves are related to no d. Every axis and class pair, both
// evaluators.
TEST(QueryCostTest, HierNodesStayLinearOnADeepChain) {
  auto vocab = std::make_shared<Vocabulary>();
  std::vector<ClassId> palette = Palette(*vocab);
  Directory d(vocab);
  EntryId cur = kInvalidEntryId;
  for (int i = 0; i < 200; ++i) {
    ClassId cls = i == 0 ? palette[0] : palette[1 + i % 2];
    cur = d.AddEntry(cur, "c" + std::to_string(i), {cls}, {}).value();
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        d.AddEntry(cur, "f" + std::to_string(i), {palette[3]}, {}).ok());
  }
  d.EnableSnapshots();
  PinnedSnapshot pin = d.PinSnapshot();
  ASSERT_TRUE(pin);

  for (ClassId x : palette) {
    for (ClassId y : palette) {
      for (Axis axis : kAllAxes) {
        Query q = Query::Hier(axis, Query::Select(MatchClass(x)),
                              Query::Select(MatchClass(y)));
        const std::string label = q.ToString(*vocab);
        CheckLive(d, nullptr, nullptr, q, label);
        CheckSnapshot(*pin, q, ReferenceFor(d, q, nullptr), label);
      }
    }
  }
}

}  // namespace
}  // namespace ldapbound
