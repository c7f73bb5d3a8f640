#include "gen.h"

#include <algorithm>
#include <set>
#include <tuple>

#include "server/wire.h"

namespace perfbench {

namespace {

constexpr const char* kGiven[] = {"ada",  "brian", "chen", "dana",
                                  "emil", "fatou", "gita", "hiro",
                                  "ines", "jonas", "kemal", "lena"};
constexpr const char* kFamily[] = {"amer",  "jagadish",  "lakshmanan",
                                   "srivastava", "suciu", "armstrong",
                                   "ullman", "widom", "gray", "codd"};

// Search requests: lookups are subtree searches from the root, team
// listings and pages are subtree searches from the team entry.
constexpr const char* kRoot = "o=acme";
constexpr const char* kPersonFilter = "(objectClass=person)";
constexpr uint8_t kSubtree = 2;

// Churn's mix, as shares of all ops: 50% writes (2 points of them illegal
// adds), 40% lookups, 10% team listings. Every legal add (a ~= 24% of ops,
// since adds and deletes balance) is followed by its verifying lookup, so
// the freely drawn ops are scaled by 1 / (1 - a).
constexpr double kChurnVerifyShare = 0.24;
constexpr double kChurnWrite = 0.50 / (1 - kChurnVerifyShare);
constexpr double kChurnList = 0.10 / (1 - kChurnVerifyShare);
constexpr double kChurnIllegalInWrites = 0.02 / 0.50;
// Adds a connection keeps alive before it only deletes; |D| stays level.
constexpr size_t kChurnPool = 8;

std::string Name(Rng& rng) {
  return std::string(kGiven[rng.Below(std::size(kGiven))]) + " " +
         kFamily[rng.Below(std::size(kFamily))];
}

const char* PersonClass(Rng& rng) {
  return rng.Unit() < 0.6 ? "staffMember" : "researcher";
}

bool Put(std::FILE* out, const std::string& s) {
  return std::fwrite(s.data(), 1, s.size(), out) == s.size();
}

}  // namespace

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Rng::Next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  return Mix64(state_ - 0x9e3779b97f4a7c15ULL);
}

bool ExpectedViolation::operator<(const ExpectedViolation& o) const {
  return std::tie(entry, kind, attr) < std::tie(o.entry, o.kind, o.attr);
}

bool ExpectedViolation::operator==(const ExpectedViolation& o) const {
  return std::tie(entry, kind, attr) == std::tie(o.entry, o.kind, o.attr);
}

std::string UidFor(uint64_t seed, uint64_t index) {
  // Mix64 is a bijection and seed * gamma + index is injective in index,
  // so the uids of one seed never collide.
  static const char kHex[] = "0123456789abcdef";
  uint64_t h = Mix64(seed * 0x9e3779b97f4a7c15ULL + index);
  std::string uid(16, '0');
  for (int i = 15; i >= 0; --i, h >>= 4) uid[i] = kHex[h & 15];
  return uid;
}

std::string DirectoryPlan::PersonUid(uint64_t index) const {
  return UidFor(seed, index);
}

std::string DirectoryPlan::PersonDn(uint32_t person) const {
  return "uid=" + PersonUid(person) + "," + team_dn[person_team[person]];
}

DirectoryPlan PlanDirectory(uint64_t seed, size_t num_entries, bool plant) {
  DirectoryPlan plan;
  plan.seed = seed;
  plan.num_entries = num_entries;
  Rng rng(Mix64(seed ^ 0x6469726563746f72ULL));

  std::vector<bool> empty_team(kTeams, false);
  if (plant) {
    // One empty team in every other division: each division keeps persons
    // below it, so only the team violates `orgGroup descendant person`.
    for (int k = 0; k < kPlantedEmptyTeams; ++k) {
      empty_team[2 * k * kTeamsPerDivision + rng.Below(kTeamsPerDivision)] =
          true;
    }
  }
  std::vector<int> eligible;
  for (int t = 0; t < kTeams; ++t) {
    if (!empty_team[t]) eligible.push_back(t);
  }
  const size_t children = plant ? kPlantedPerKind : 0;
  const size_t persons = num_entries - kOrgEntries - children;
  std::vector<size_t> team_size(kTeams, 0);
  for (size_t p = 0; p < persons; ++p) {
    ++team_size[eligible[rng.Below(eligible.size())]];
  }

  plan.team_dn.resize(kTeams);
  plan.team_persons.resize(kTeams);
  plan.person_team.resize(persons);
  uint32_t next_person = 0;
  for (int team = 0; team < kTeams; ++team) {
    plan.team_dn[team] = "ou=team" + std::to_string(team % kTeamsPerDivision) +
                         ",ou=div" + std::to_string(team / kTeamsPerDivision) +
                         ",o=acme";
    for (size_t k = 0; k < team_size[team]; ++k) {
      const uint32_t p = next_person++;
      plan.person_team[p] = static_cast<uint16_t>(team);
      plan.team_persons[team].push_back(p);
    }
  }

  std::vector<bool> has_child(persons, false);
  if (plant) {
    std::set<uint32_t> used;
    auto pick = [&](auto accept) {
      for (;;) {
        uint32_t p = static_cast<uint32_t>(rng.Below(persons));
        if (used.count(p) == 0 && accept(p)) {
          used.insert(p);
          return p;
        }
      }
    };
    for (int k = 0; k < kPlantedPerKind; ++k) {
      plan.missing_name.push_back(pick([](uint32_t) { return true; }));
    }
    // The key pass reports the later occurrence of a value, so the
    // original sits in an earlier team (the same team would clash RDNs).
    const int first_team = plan.person_team[0];
    for (int k = 0; k < kPlantedPerKind; ++k) {
      uint32_t p =
          pick([&](uint32_t q) { return plan.person_team[q] > first_team; });
      uint32_t original = pick(
          [&](uint32_t q) { return plan.person_team[q] < plan.person_team[p]; });
      plan.duplicate.emplace_back(p, original);
    }
    for (int k = 0; k < kPlantedPerKind; ++k) {
      uint32_t p = pick([](uint32_t) { return true; });
      plan.child_parents.push_back(p);
      has_child[p] = true;
    }
  }

  // Ids are LDIF positions; a planted child follows its parent.
  plan.team_id.resize(kTeams);
  plan.person_id.resize(persons);
  uint64_t id = 1;  // o=acme is 0
  for (int team = 0; team < kTeams; ++team) {
    if (team % kTeamsPerDivision == 0) ++id;  // the division
    plan.team_id[team] = id++;
    for (uint32_t p : plan.team_persons[team]) {
      plan.person_id[p] = id++;
      if (has_child[p]) ++id;
    }
  }

  for (uint32_t p : plan.missing_name) {
    plan.planted.push_back(
        {"MissingRequiredAttribute", plan.person_id[p], "name"});
  }
  for (const auto& [p, original] : plan.duplicate) {
    plan.planted.push_back({"DuplicateKeyValue", plan.person_id[p], "uid"});
  }
  for (uint32_t p : plan.child_parents) {
    plan.planted.push_back({"ForbiddenRelationship", plan.person_id[p], ""});
  }
  for (int t = 0; t < kTeams; ++t) {
    if (empty_team[t]) {
      plan.planted.push_back({"RequiredRelationship", plan.team_id[t], ""});
    }
  }
  std::sort(plan.planted.begin(), plan.planted.end());
  return plan;
}

bool WriteDirectoryLdif(const DirectoryPlan& plan, std::FILE* out) {
  const size_t persons = plan.num_persons();
  std::vector<bool> no_name(persons, false), has_child(persons, false);
  std::vector<int64_t> uid_of(persons, -1);
  for (uint32_t p : plan.missing_name) no_name[p] = true;
  for (uint32_t p : plan.child_parents) has_child[p] = true;
  for (const auto& [p, original] : plan.duplicate) uid_of[p] = original;

  Rng rng(Mix64(plan.seed ^ 0x636f6e74656e7473ULL));
  uint64_t next_child = 0;
  auto person = [&](const std::string& dn, const std::string& uid,
                    bool with_name) {
    std::string e = "dn: " + dn + "\nobjectClass: top\nobjectClass: person\n" +
                    "objectClass: " + PersonClass(rng) + "\n";
    const bool online = rng.Unit() < 0.8;
    if (online) e += "objectClass: online\n";
    e += "uid: " + uid + "\n";
    if (with_name) e += "name: " + Name(rng) + "\n";
    if (online) e += "mail: " + uid + "@acme.example\n";
    return e + "\n";
  };

  if (!Put(out, "dn: o=acme\nobjectClass: top\nobjectClass: orgGroup\n"
                "objectClass: organization\no: acme\n"
                "uri: http://acme.example/\n\n")) {
    return false;
  }
  for (int team = 0; team < kTeams; ++team) {
    const int div = team / kTeamsPerDivision;
    if (team % kTeamsPerDivision == 0 &&
        !Put(out, "dn: ou=div" + std::to_string(div) +
                      ",o=acme\nobjectClass: top\nobjectClass: orgGroup\n"
                      "objectClass: orgUnit\nou: div" +
                      std::to_string(div) + "\n\n")) {
      return false;
    }
    const std::string ou = "team" + std::to_string(team % kTeamsPerDivision);
    if (!Put(out, "dn: " + plan.team_dn[team] +
                      "\nobjectClass: top\nobjectClass: orgGroup\n"
                      "objectClass: orgUnit\nou: " + ou + "\nlocation: floor " +
                      std::to_string(rng.Below(9)) + "\n\n")) {
      return false;
    }
    for (uint32_t p : plan.team_persons[team]) {
      const std::string uid = plan.PersonUid(uid_of[p] >= 0 ? uid_of[p] : p);
      const std::string dn = "uid=" + uid + "," + plan.team_dn[team];
      if (!Put(out, person(dn, uid, !no_name[p]))) return false;
      if (has_child[p]) {
        const std::string child = plan.PersonUid(kChildBase + next_child++);
        if (!Put(out, person("uid=" + child + "," + dn, child, true))) {
          return false;
        }
      }
    }
  }
  return std::fflush(out) == 0;
}

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "lookup") {
    *out = Workload::kLookup;
  } else if (name == "churn") {
    *out = Workload::kChurn;
  } else {
    return false;
  }
  return true;
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kLookup:
      return "lookup";
    case OpKind::kList:
      return "list";
    case OpKind::kPage:
      return "page";
    case OpKind::kAdd:
      return "add";
    case OpKind::kIllegalAdd:
      return "illegal_add";
    case OpKind::kDelete:
      return "delete";
  }
  return "?";
}

std::string EncodeOp(const Op& op, uint64_t request_id,
                     const std::string& cookie) {
  using namespace ldapbound;
  switch (op.kind) {
    case OpKind::kLookup:
    case OpKind::kList:
      return EncodeSearchRequest(request_id, op.base, kSubtree, op.filter);
    case OpKind::kPage:
      return EncodeSearchEntriesRequest(request_id, op.base, kSubtree,
                                        op.filter, kPageSize, cookie);
    case OpKind::kAdd:
    case OpKind::kIllegalAdd:
      return EncodeAddRequest(request_id, op.base, op.classes, op.values);
    case OpKind::kDelete:
      return EncodeDeleteRequest(request_id, op.base);
  }
  return {};
}

ConnModel::ConnModel(const DirectoryPlan* plan)
    : plan_(plan), team_ids_(kTeams) {
  for (int team = 0; team < kTeams; ++team) {
    for (uint32_t p : plan->team_persons[team]) {
      team_ids_[team].push_back(plan->person_id[p]);
    }
  }
}

std::string ConnModel::CheckSearch(const Op& op,
                                   const std::vector<uint64_t>& ids) {
  if (op.kind == OpKind::kLookup) {
    if (op.verify_add) {
      auto it = added_.find(last_added_dn_);
      if (ids.size() != 1 || it == added_.end()) {
        return "add of " + last_added_dn_ + " not visible to the next lookup";
      }
      it->second.id = static_cast<int64_t>(ids[0]);
      return "";
    }
    std::vector<uint64_t> want;
    if (op.expect_person >= 0) want.push_back(plan_->person_id[op.expect_person]);
    if (ids != want) return "lookup " + op.filter + " returned a wrong entry";
    return "";
  }
  const std::vector<uint64_t>& base = team_ids_[op.team];
  std::vector<uint64_t> extra;
  for (const auto& [dn, added] : added_) {
    if (added.team == op.team) extra.push_back(static_cast<uint64_t>(added.id));
  }
  bool match = ids.size() == base.size() + extra.size();
  if (match && extra.empty()) {
    match = ids == base;
  } else if (match) {
    std::vector<uint64_t> want(base);
    want.insert(want.end(), extra.begin(), extra.end());
    std::sort(want.begin(), want.end());
    match = ids == want;
  }
  if (!match) {
    return "listing of " + op.base + " returned " + std::to_string(ids.size()) +
           " ids, want " + std::to_string(base.size() + extra.size());
  }
  return "";
}

std::string ConnModel::CheckPage(const Op& op, const std::vector<uint64_t>& ids,
                                 const std::string& first_dn,
                                 bool has_more) const {
  const std::vector<uint32_t>& members = plan_->team_persons[op.team];
  const size_t begin = static_cast<size_t>(op.page_index) * kPageSize;
  const size_t end = std::min(members.size(), begin + kPageSize);
  std::vector<uint64_t> want;
  for (size_t i = begin; i < end; ++i) {
    want.push_back(plan_->person_id[members[i]]);
  }
  if (ids != want || has_more != (end < members.size())) {
    return "page " + std::to_string(op.page_index) + " of " + op.base +
           " does not match the team's preorder";
  }
  if (!want.empty() && first_dn != plan_->PersonDn(members[begin])) {
    return "page of " + op.base + " carries DN '" + first_dn + "'";
  }
  return "";
}

std::string ConnModel::OnWrite(const Op& op, bool ok, bool illegal) {
  switch (op.kind) {
    case OpKind::kAdd:
      if (!ok) return "legal add of " + op.base + " was refused";
      added_[op.base] = Added{op.team, -1};
      last_added_dn_ = op.base;
      return "";
    case OpKind::kIllegalAdd:
      if (!illegal) {
        return std::string("illegal add of ") + op.base +
               (ok ? " was accepted" : " failed without kIllegal");
      }
      return "";
    case OpKind::kDelete:
      if (!ok) return "delete of " + op.base + " was refused";
      added_.erase(op.base);
      return "";
    default:
      return "not a write";
  }
}

StreamGen::StreamGen(const DirectoryPlan* plan, Workload workload,
                     uint64_t seed, int conn, int conns)
    : plan_(plan),
      workload_(workload),
      rng_(Mix64(seed * 0x100000001b3ULL + static_cast<uint64_t>(conn) * 7919 +
                 (workload == Workload::kChurn ? 0x63687572ULL : 0))),
      conn_(conn),
      conns_(conns) {
  for (int t = conn; t < kTeams; t += conns) own_teams_.push_back(t);
}

int StreamGen::OwnTeam() {
  return own_teams_[rng_.Below(own_teams_.size())];
}

Op StreamGen::Next() {
  if (workload_ == Workload::kLookup) {
    const double r = rng_.Unit();
    if (r < 0.60) return Lookup();
    if (r < 0.85) return List();
    return Page();
  }
  if (!verify_uid_.empty()) {
    Op op;
    op.kind = OpKind::kLookup;
    op.exclusive = true;
    op.verify_add = true;
    op.base = kRoot;
    op.filter = "(uid=" + verify_uid_ + ")";
    verify_uid_.clear();
    return op;
  }
  const double r = rng_.Unit();
  if (r < kChurnWrite) return Write();
  if (r < kChurnWrite + kChurnList) return List();
  return Lookup();
}

Op StreamGen::Lookup() {
  Op op;
  op.kind = OpKind::kLookup;
  op.base = kRoot;
  std::string uid;
  if (rng_.Unit() < 0.10) {
    uid = UidFor(plan_->seed, kMissBase +
                                  (static_cast<uint64_t>(conn_) << 32) +
                                  next_miss_++);
  } else {
    op.expect_person = static_cast<int64_t>(rng_.Below(plan_->num_persons()));
    uid = plan_->PersonUid(static_cast<uint64_t>(op.expect_person));
  }
  op.filter = "(uid=" + uid + ")";
  return op;
}

Op StreamGen::List() {
  Op op;
  op.kind = OpKind::kList;
  op.team = workload_ == Workload::kChurn
                ? OwnTeam()
                : static_cast<int>(rng_.Below(kTeams));
  op.base = plan_->team_dn[op.team];
  op.filter = kPersonFilter;
  return op;
}

Op StreamGen::Page() {
  Op op;
  op.kind = OpKind::kPage;
  const int slot = next_slot_;
  next_slot_ = (next_slot_ + 1) % kScanSlots;
  if (scan_team_[slot] < 0) {
    scan_team_[slot] = static_cast<int>(rng_.Below(kTeams));
    scan_page_[slot] = 0;
  }
  op.scan_slot = slot;
  op.team = scan_team_[slot];
  op.page_index = scan_page_[slot];
  op.continues_scan = op.page_index > 0;
  op.base = plan_->team_dn[op.team];
  op.filter = kPersonFilter;
  if ((static_cast<size_t>(op.page_index) + 1) * kPageSize >=
      plan_->team_persons[op.team].size()) {
    scan_team_[slot] = -1;
  } else {
    ++scan_page_[slot];
  }
  return op;
}

Op StreamGen::Write() {
  Op op;
  op.exclusive = true;
  if (rng_.Unit() < kChurnIllegalInWrites) {
    // One of the three ways an add breaks the schema: a person below a
    // person (forbid person child top), a person without `name` (content),
    // or a second entry with an existing uid (key uid).
    op.kind = OpKind::kIllegalAdd;
    const int team = OwnTeam();
    const std::vector<uint32_t>& members = plan_->team_persons[team];
    std::string uid = UidFor(plan_->seed, kAddBase +
                                              (static_cast<uint64_t>(conn_) << 32) +
                                              next_add_++);
    op.classes = {"top", "person", "staffMember"};
    const uint64_t variant = rng_.Below(3);
    if (variant == 0) {
      op.base = "uid=" + uid + "," +
                plan_->PersonDn(members[rng_.Below(members.size())]);
      op.values = {{"uid", uid}, {"name", Name(rng_)}};
    } else if (variant == 1) {
      op.base = "uid=" + uid + "," + plan_->team_dn[team];
      op.values = {{"uid", uid}};
    } else {
      uint32_t other;
      do {
        other = static_cast<uint32_t>(rng_.Below(plan_->num_persons()));
      } while (plan_->person_team[other] == team);
      uid = plan_->PersonUid(other);
      op.base = "uid=" + uid + "," + plan_->team_dn[team];
      op.values = {{"uid", uid}, {"name", Name(rng_)}};
    }
    return op;
  }
  const bool add = pool_.empty() ||
                   (pool_.size() < kChurnPool && rng_.Unit() < 0.5);
  if (!add) {
    op.kind = OpKind::kDelete;
    op.base = pool_.front();
    pool_.pop_front();
    return op;
  }
  op.kind = OpKind::kAdd;
  op.team = OwnTeam();
  const std::string uid =
      UidFor(plan_->seed,
             kAddBase + (static_cast<uint64_t>(conn_) << 32) + next_add_++);
  op.base = "uid=" + uid + "," + plan_->team_dn[op.team];
  op.classes = {"top", "person", PersonClass(rng_), "online"};
  op.values = {{"uid", uid}, {"name", Name(rng_)},
               {"mail", uid + "@acme.example"}};
  pool_.push_back(op.base);
  verify_uid_ = uid;
  return op;
}

}  // namespace perfbench
