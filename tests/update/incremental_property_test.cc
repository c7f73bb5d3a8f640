// Property test for Theorem 4.2: given a legal instance D, the incremental
// verdict for a subtree insertion/deletion must equal a full re-check of
// the updated instance — for both validator modes (paper-faithful and the
// ancestor-path extension).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/legality_checker.h"
#include "schema/schema_format.h"
#include "update/incremental.h"
#include "update/subtree_snapshot.h"
#include "workload/white_pages.h"

namespace ldapbound {
namespace {

class IncrementalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Builds a random content-legal subtree of units/persons under `parent`.
std::vector<EntryId> GrowRandomSubtree(Directory& d, EntryId parent,
                                       std::mt19937_64& rng, int max_nodes) {
  std::uniform_int_distribution<int> kind(0, 3);
  std::uniform_int_distribution<int> fan(1, 3);
  std::vector<EntryId> created;
  static int counter = 0;

  // Root of the subtree: a unit or a person.
  bool root_is_unit = kind(rng) != 0;
  EntrySpec spec;
  if (root_is_unit) {
    std::string name = "ru" + std::to_string(counter++);
    spec.rdn = "ou=" + name;
    spec.classes = {"orgUnit", "orgGroup", "top"};
    spec.values = {{"ou", name}};
  } else {
    std::string uid = "rp" + std::to_string(counter++);
    spec.rdn = "uid=" + uid;
    spec.classes = {"person", "top"};
    spec.values = {{"uid", uid}, {"name", "r " + uid}};
  }
  EntryId root = d.AddEntryFromSpec(parent, spec).value();
  created.push_back(root);
  if (!root_is_unit) return created;

  int budget = fan(rng) % max_nodes + 1;
  for (int i = 0; i < budget; ++i) {
    std::string uid = "rq" + std::to_string(counter++);
    EntrySpec person;
    person.rdn = "uid=" + uid;
    person.classes = {"person", "top"};
    person.values = {{"uid", uid}, {"name", "r " + uid}};
    created.push_back(d.AddEntryFromSpec(root, person).value());
  }
  return created;
}

TEST_P(IncrementalPropertyTest, InsertVerdictEqualsFullRecheck) {
  uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = MakeWhitePagesSchema(vocab);
  ASSERT_TRUE(schema.ok());
  LegalityChecker full(*schema);

  WhitePagesOptions options;
  options.seed = seed;
  options.org_unit_depth = 2;
  options.org_unit_fanout = 2;
  options.persons_per_unit = 2;
  auto directory = MakeWhitePagesInstance(*schema, options);
  ASSERT_TRUE(directory.ok());
  ASSERT_TRUE(full.CheckLegal(*directory));

  for (int round = 0; round < 12; ++round) {
    // Pick a random alive parent (or the root area) and insert a subtree.
    std::vector<EntryId> alive;
    directory->ForEachAlive([&](const Entry& e) { alive.push_back(e.id()); });
    std::uniform_int_distribution<size_t> pick(0, alive.size() - 1);
    EntryId parent = alive[pick(rng)];

    std::vector<EntryId> created =
        GrowRandomSubtree(*directory, parent, rng, 3);
    EntrySet delta(directory->IdCapacity());
    for (EntryId id : created) delta.Insert(id);

    bool expected = full.CheckLegal(*directory);
    IncrementalValidator validator(*schema);
    bool incremental = validator.CheckAfterInsert(*directory, delta);
    EXPECT_EQ(incremental, expected) << "seed=" << seed << " round=" << round;
    // The Δ-driven extension must agree as well.
    IncrementalValidator::Options dd;
    dd.delta_driven_insert = true;
    bool delta_driven =
        IncrementalValidator(*schema, dd).CheckAfterInsert(*directory, delta);
    EXPECT_EQ(delta_driven, expected)
        << "seed=" << seed << " round=" << round << " (delta-driven)";

    if (!expected) {
      // Keep the running instance legal: undo the bad insert.
      for (auto it = created.rbegin(); it != created.rend(); ++it) {
        ASSERT_TRUE(directory->DeleteLeaf(*it).ok());
      }
    }
  }
}

TEST_P(IncrementalPropertyTest, DeleteVerdictEqualsFullRecheck) {
  uint64_t seed = GetParam();
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = MakeWhitePagesSchema(vocab);
  ASSERT_TRUE(schema.ok());
  LegalityChecker full(*schema);

  WhitePagesOptions options;
  options.seed = seed;
  options.org_unit_depth = 2;
  options.org_unit_fanout = 2;
  options.persons_per_unit = 2;
  auto directory = MakeWhitePagesInstance(*schema, options);
  ASSERT_TRUE(directory.ok());
  ASSERT_TRUE(full.CheckLegal(*directory));

  for (int round = 0; round < 20; ++round) {
    std::vector<EntryId> alive;
    directory->ForEachAlive([&](const Entry& e) {
      if (e.parent() != kInvalidEntryId) alive.push_back(e.id());
    });
    if (alive.empty()) break;
    std::uniform_int_distribution<size_t> pick(0, alive.size() - 1);
    EntryId doomed = alive[pick(rng)];
    EntrySet delta(directory->IdCapacity());
    for (EntryId id : directory->SubtreeEntries(doomed)) delta.Insert(id);

    // Both validator modes run against the pre-deletion instance.
    IncrementalValidator::Options faithful;
    IncrementalValidator::Options optimized;
    optimized.ancestor_path_optimization = true;
    bool verdict_faithful = IncrementalValidator(*schema, faithful)
                                .CheckBeforeDelete(*directory, doomed, delta);
    bool verdict_optimized = IncrementalValidator(*schema, optimized)
                                 .CheckBeforeDelete(*directory, doomed,
                                                    delta);

    // Oracle: apply the deletion, fully re-check, then restore.
    SubtreeSnapshot snapshot = *SubtreeSnapshot::Capture(*directory, doomed);
    EntryId parent = directory->entry(doomed).parent();
    ASSERT_TRUE(directory->DeleteSubtree(doomed).ok());
    bool expected = full.CheckLegal(*directory);
    EXPECT_EQ(verdict_faithful, expected)
        << "seed=" << seed << " round=" << round;
    EXPECT_EQ(verdict_optimized, expected)
        << "seed=" << seed << " round=" << round << " (optimized)";
    auto restored = snapshot.Restore(&*directory, parent);
    ASSERT_TRUE(restored.ok()) << restored.status();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

// Theorem 4.2 with the §6.1 key extension. The key check answers from the
// writer's value postings when snapshots are on and scans D when they are
// off; both must give the same verdict and the same violation list as a
// naive reference, and the verdict must equal a full key check of the
// post-state. Two directories take the same operations, one with
// snapshots on. Adds draw from small value pools, so batches collide
// with D and within Δ, and deletes free values for reuse.
class KeyedIncrementalPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

constexpr char kKeyedSchema[] = R"(
attribute name string
attribute uid string
attribute mail string
key uid
key mail
class org : top {
  require name
}
class person : top {
  require name
  allow uid, mail
}
structure {
  forbid person child top
}
)";

// `count` distinct values from `prefix`0 .. `prefix`(pool-1).
std::vector<std::string> DrawValues(std::mt19937_64& rng,
                                    const std::string& prefix, int pool,
                                    int count) {
  std::vector<int> picks(pool);
  for (int i = 0; i < pool; ++i) picks[i] = i;
  std::shuffle(picks.begin(), picks.end(), rng);
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(prefix + std::to_string(picks[i]));
  }
  return out;
}

// Reference for the key violations of inserting Δ: duplicates within Δ
// in id order, then one violation per (old entry, Δ value it holds) in
// id and value order, attributed to Δ's first holder of the value.
std::vector<Violation> NaiveDeltaKeyViolations(const DirectorySchema& schema,
                                               const Directory& directory,
                                               const EntrySet& delta) {
  std::vector<Violation> out;
  auto report = [&](EntryId entry, AttributeId attr) {
    Violation v;
    v.kind = ViolationKind::kDuplicateKeyValue;
    v.entry = entry;
    v.attr = attr;
    out.push_back(v);
  };
  for (AttributeId attr : schema.key_attributes()) {
    std::vector<std::pair<Value, EntryId>> fresh;
    auto first_holder = [&](const Value& v) {
      for (const auto& [value, id] : fresh) {
        if (value == v) return id;
      }
      return kInvalidEntryId;
    };
    delta.ForEach([&](EntryId id) {
      for (const Value& v : directory.entry(id).GetValues(attr)) {
        if (first_holder(v) != kInvalidEntryId) {
          report(id, attr);
        } else {
          fresh.emplace_back(v, id);
        }
      }
    });
    directory.ForEachAlive([&](const Entry& e) {
      if (delta.Contains(e.id())) return;
      for (const Value& v : e.GetValues(attr)) {
        EntryId holder = first_holder(v);
        if (holder != kInvalidEntryId) report(holder, attr);
      }
    });
  }
  return out;
}

TEST_P(KeyedIncrementalPropertyTest, PostingProbeEqualsScanAndFullRecheck) {
  const uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = ParseDirectorySchema(kKeyedSchema, vocab);
  ASSERT_TRUE(schema.ok()) << schema.status();
  LegalityChecker full(*schema);
  IncrementalValidator validator(*schema);

  Directory with_postings(vocab);
  Directory with_scan(vocab);
  EntrySpec root;
  root.rdn = "o=acme";
  root.classes = {"org", "top"};
  root.values = {{"name", "acme"}};
  const EntryId org =
      with_postings.AddEntryFromSpec(kInvalidEntryId, root).value();
  ASSERT_EQ(with_scan.AddEntryFromSpec(kInvalidEntryId, root).value(), org);
  with_postings.EnableSnapshots();

  int counter = 0;
  int illegal_rounds = 0;
  for (int round = 0; round < 60; ++round) {
    // Δ: 1-4 persons under the root, 1-2 uids and 0-1 mail each.
    std::vector<EntryId> created;
    const int batch = std::uniform_int_distribution<int>(1, 4)(rng);
    for (int i = 0; i < batch; ++i) {
      EntrySpec person;
      const std::string name = "p" + std::to_string(counter++);
      person.rdn = "name=" + name;
      person.classes = {"person", "top"};
      person.values = {{"name", name}};
      const int uids = std::uniform_int_distribution<int>(1, 2)(rng);
      for (const std::string& uid : DrawValues(rng, "u", 24, uids)) {
        person.values.push_back({"uid", uid});
      }
      const int mails = std::uniform_int_distribution<int>(0, 1)(rng);
      for (const std::string& mail : DrawValues(rng, "m", 16, mails)) {
        person.values.push_back({"mail", mail});
      }
      const EntryId id = with_postings.AddEntryFromSpec(org, person).value();
      ASSERT_EQ(with_scan.AddEntryFromSpec(org, person).value(), id);
      created.push_back(id);
    }
    EntrySet delta(with_scan.IdCapacity());
    for (EntryId id : created) delta.Insert(id);

    std::vector<Violation> probed;
    std::vector<Violation> scanned;
    const bool verdict =
        validator.CheckAfterInsert(with_postings, delta, &probed);
    EXPECT_EQ(validator.CheckAfterInsert(with_scan, delta, &scanned), verdict)
        << "seed=" << seed << " round=" << round;
    EXPECT_EQ(probed, scanned) << "seed=" << seed << " round=" << round;
    EXPECT_EQ(probed, NaiveDeltaKeyViolations(*schema, with_scan, delta))
        << "seed=" << seed << " round=" << round;
    EXPECT_EQ(validator.CheckAfterInsert(with_postings, delta), verdict);
    // Content and structure are legal by construction: the verdict is
    // the key verdict of the post-state.
    EXPECT_EQ(full.CheckKeys(with_scan), verdict)
        << "seed=" << seed << " round=" << round;
    EXPECT_EQ(full.CheckLegal(with_scan), verdict);

    if (!verdict) {
      ++illegal_rounds;
      for (auto it = created.rbegin(); it != created.rend(); ++it) {
        ASSERT_TRUE(with_postings.DeleteLeaf(*it).ok());
        ASSERT_TRUE(with_scan.DeleteLeaf(*it).ok());
      }
    }
    // Publish on some rounds only, so probes also read through
    // unpublished (pending) posting changes.
    if (std::uniform_int_distribution<int>(0, 1)(rng) == 0) {
      with_postings.PublishSnapshot();
    }

    // Delete 0-3 persons, freeing their values.
    std::vector<EntryId> persons;
    with_scan.ForEachAlive([&](const Entry& e) {
      if (e.id() != org) persons.push_back(e.id());
    });
    std::shuffle(persons.begin(), persons.end(), rng);
    const size_t deletes = std::min<size_t>(
        persons.size(), std::uniform_int_distribution<int>(0, 3)(rng));
    for (size_t i = 0; i < deletes; ++i) {
      ASSERT_TRUE(with_postings.DeleteLeaf(persons[i]).ok());
      ASSERT_TRUE(with_scan.DeleteLeaf(persons[i]).ok());
    }
    ASSERT_TRUE(full.CheckLegal(with_scan)) << "seed=" << seed;
  }
  // The pools are small enough that collisions are common, and large
  // enough that legal batches are too.
  EXPECT_GT(illegal_rounds, 5) << "seed=" << seed;
  EXPECT_LT(illegal_rounds, 55) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyedIncrementalPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace ldapbound
