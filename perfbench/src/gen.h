#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

// Seeded inputs of the benchmark: the white-pages directory (o=acme, 8
// divisions of 8 teams, persons below the teams), its planted-violation
// variant, and the per-connection request streams of the wire workloads.
// Everything is a pure function of (seed, size, connection), so the load
// generator, the traced in-process replay and the bulk checker each
// rebuild the same plan instead of passing it around.

#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// splitmix64: a seeded stream, and its finalizer as a bijective hash.
uint64_t Mix64(uint64_t x);

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return (Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

constexpr int kDivisions = 8;
constexpr int kTeamsPerDivision = 8;
constexpr int kTeams = kDivisions * kTeamsPerDivision;
/// o=acme + divisions + teams.
constexpr size_t kOrgEntries = 1 + kDivisions + kTeams;

/// A violation the bulk checker must report, in the checker's own terms
/// (ViolationKindToString, offending entry id, attribute name or "").
struct ExpectedViolation {
  std::string kind;
  uint64_t entry = 0;
  std::string attr;
  bool operator<(const ExpectedViolation& o) const;
  bool operator==(const ExpectedViolation& o) const;
};

/// Planted violations of the bulk_check variant. Each kind is planted
/// this many times (empty teams: kPlantedEmptyTeams, one per division).
constexpr int kPlantedPerKind = 8;
constexpr int kPlantedEmptyTeams = 4;

/// The directory: entry ids are LDIF positions (the loader assigns ids in
/// load order), so every expected answer is known before the program runs.
struct DirectoryPlan {
  uint64_t seed = 0;
  size_t num_entries = 0;
  std::vector<std::string> team_dn;    ///< per team
  std::vector<uint64_t> team_id;       ///< per team
  /// Base persons of each team, in LDIF (= id = preorder label) order.
  std::vector<std::vector<uint32_t>> team_persons;
  std::vector<uint64_t> person_id;     ///< per person index
  std::vector<uint16_t> person_team;   ///< per person index
  std::vector<ExpectedViolation> planted;  ///< sorted; empty unless planted
  // The planted alterations, by person index.
  std::vector<uint32_t> missing_name;  ///< written without `name`
  std::vector<std::pair<uint32_t, uint32_t>> duplicate;  ///< (person, uid of)
  std::vector<uint32_t> child_parents;  ///< get a person child

  size_t num_persons() const { return person_id.size(); }
  std::string PersonUid(uint64_t index) const;
  std::string PersonDn(uint32_t person) const;
};

/// Uid of person `index` under `seed`: 16 hex digits of a bijective hash,
/// so distinct indexes never collide. Index ranges: base persons
/// [0, persons), planted children kChildBase.., misses kMissBase..,
/// added persons kAddBase + conn * 2^32 ...
std::string UidFor(uint64_t seed, uint64_t index);
constexpr uint64_t kChildBase = uint64_t{1} << 39;
constexpr uint64_t kMissBase = uint64_t{1} << 40;
constexpr uint64_t kAddBase = uint64_t{1} << 41;

DirectoryPlan PlanDirectory(uint64_t seed, size_t num_entries, bool plant);

/// Writes the plan's LDIF (parents before children). Returns false on an
/// I/O error.
bool WriteDirectoryLdif(const DirectoryPlan& plan, std::FILE* out);

enum class Workload { kLookup, kChurn };
bool ParseWorkload(const std::string& name, Workload* out);

/// Open-loop arrival rate (ops/s) of a wire workload, frozen. Closed-loop
/// capacity on the 4-vCPU box the benchmark was defined on: lookup
/// 6.5-12.5k ops/s, churn 135-230 ops/s, depending on how loaded the
/// shared host was. The rates sit far below it (lookup ~5%, churn ~20-30%)
/// so the open-loop latency is service time, not queueing: at half load,
/// queueing (listings behind listings on the two server workers, adds
/// behind adds on the write mutex) amplified the host's speed swings into
/// p90 spreads of 30-90% between runs. Later changes must not retune them:
/// latency is compared at the same offered load, and throughput is the
/// closed loop's job.
constexpr double OpenLoopRate(Workload workload) {
  return workload == Workload::kLookup ? 500.0 : 40.0;
}
/// Outstanding requests per connection in the closed-loop phase.
constexpr uint64_t kClosedWindow = 8;
/// The run is invalid when the generator fell behind its own schedule:
/// when a tenth of the open-loop requests went out more than this late
/// (the host's short vCPU stalls delay only a few percent).
constexpr double kMaxLateUs = 1000.0;

enum class OpKind : uint8_t { kLookup, kList, kPage, kAdd, kIllegalAdd, kDelete };
constexpr int kOpKinds = 6;
const char* OpKindName(OpKind kind);

constexpr uint32_t kPageSize = 100;
/// Paged scans a connection interleaves. A page depends only on the
/// previous page of its own scan, so several scans keep one slow page from
/// holding every later page of the connection.
constexpr int kScanSlots = 4;

/// One request of a connection's stream.
struct Op {
  OpKind kind = OpKind::kLookup;
  /// Sent only when nothing else is in flight on its connection, and
  /// nothing is sent behind it until it is answered: writes, and the
  /// lookup that verifies an add (the answers of later reads depend on
  /// them).
  bool exclusive = false;
  /// Page 2.. of a paged scan: needs the previous page's cookie.
  bool continues_scan = false;
  int scan_slot = 0;           ///< page: which of the connection's scans
  std::string base;    ///< search base / write DN
  std::string filter;  ///< search filter
  // Expected answer, as the stream knows it when generating.
  int64_t expect_person = -1;  ///< lookup of a base person (-1: none)
  bool verify_add = false;     ///< lookup of this connection's last add
  int team = -1;               ///< list/page/add team
  uint32_t page_index = 0;     ///< page: 0-based page number of the scan
  std::vector<std::string> classes;  ///< add
  std::vector<std::pair<std::string, std::string>> values;  ///< add
};

/// Encodes `op` as a request frame.
std::string EncodeOp(const Op& op, uint64_t request_id,
                     const std::string& cookie);

/// What a connection has written so far, and the checks of its answers.
/// The stream and the model are per connection: in churn a connection
/// writes, lists and verifies only its own teams (team % conns == conn),
/// so its expectations never depend on another connection's timing.
class ConnModel {
 public:
  explicit ConnModel(const DirectoryPlan* plan);

  /// Checks a kSearch answer (ids ascending). Returns "" when correct,
  /// else a description of the mismatch.
  std::string CheckSearch(const Op& op, const std::vector<uint64_t>& ids);
  /// Checks one kSearchEntries page.
  std::string CheckPage(const Op& op, const std::vector<uint64_t>& ids,
                        const std::string& first_dn, bool has_more) const;
  /// Records a write's answer; returns "" when the outcome was expected.
  std::string OnWrite(const Op& op, bool ok, bool illegal);

 private:
  struct Added {
    int team = -1;
    int64_t id = -1;  ///< learned from the verifying lookup
  };
  const DirectoryPlan* plan_;
  std::vector<std::vector<uint64_t>> team_ids_;  ///< base persons, ascending
  std::unordered_map<std::string, Added> added_;  ///< alive adds by DN
  std::string last_added_dn_;
};

/// The request stream of connection `conn` of `conns`.
class StreamGen {
 public:
  StreamGen(const DirectoryPlan* plan, Workload workload, uint64_t seed,
            int conn, int conns);
  Op Next();

 private:
  Op Lookup();
  Op List();
  Op Page();
  Op Write();
  int OwnTeam();

  const DirectoryPlan* plan_;
  Workload workload_;
  Rng rng_;
  int conn_;
  int conns_;
  std::vector<int> own_teams_;
  uint64_t next_add_ = 0;
  uint64_t next_miss_ = 0;
  std::deque<std::string> pool_;  ///< alive adds (DN), oldest first
  std::string verify_uid_;        ///< add awaiting its verifying lookup
  int scan_team_[kScanSlots] = {-1, -1, -1, -1};
  uint32_t scan_page_[kScanSlots] = {};
  int next_slot_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
