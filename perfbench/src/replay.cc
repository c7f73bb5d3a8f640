// Traced in-process replay of a wire workload: the same seeded request
// streams the load generator sends, executed one at a time against a
// DirectoryServer built from the same LDIF (WAL on, MVCC on), with a span
// around every public call a wire request crosses. The calls mirror
// NetServer's request execution: frame decode, DN parse, snapshot pin,
// SnapshotSearch / SnapshotSearchPage, DirectoryServer::Add / Delete,
// response encode.
//
// A write's commit is one DirectoryServer call, so its parts are timed on
// a replica (a second Directory of the same data, kept in step): apply
// (AddEntryFromSpec / DeleteLeaf), the Figure-5 check, snapshot publish,
// and a WAL append with fsync of the same payload. The commit residual is
// the server call's time minus those parts.
//
// Ops are traced at random (half of them); the rest time only their total,
// so the traced and untraced totals give the tracing overhead per op.

#include <filesystem>

#include "common.h"
#include "consistency/inference.h"
#include "core/legality_checker.h"
#include "gen.h"
#include "ldap/dn.h"
#include "ldap/ldif.h"
#include "schema/schema_format.h"
#include "server/changelog.h"
#include "server/directory_server.h"
#include "server/net_server.h"
#include "server/wal.h"
#include "server/wire.h"
#include "spans.h"
#include "update/incremental.h"

namespace perfbench {

namespace {

using namespace ldapbound;
using Scope = SpanRecorder::Scope;

// A paged scan's retained snapshot, as the server's cursor table keeps it.
struct Cursor {
  DirectorySnapshot snap;
  uint64_t next_label = 0;
  bool open = false;
};

struct Counters {
  uint64_t list_hits = 0, list_scanned = 0;
  uint64_t page_hits = 0, page_scanned = 0;
  uint64_t response_bytes = 0;
  uint64_t wal_bytes = 0, wal_writes = 0;
};

class Replay {
 public:
  Replay(DirectoryServer* server, Directory* replica,
         const IncrementalValidator* validator, WriteAheadLog* replica_wal)
      : server_(server),
        replica_(replica),
        validator_(validator),
        replica_wal_(replica_wal),
        person_(*server->vocab().FindClass("person")) {}

  /// Executes `op` (frame `frame`) with spans into `r` (null: untimed
  /// parts); returns "" when the answer matched `model`.
  std::string Execute(const Op& op, const std::string& frame, Cursor* cursor,
                      ConnModel* model, SpanRecorder* r);

  Counters counters;

 private:
  std::string Search(const Op& op, const WireRequest& request, ConnModel* model,
                     SpanRecorder* r);
  std::string Page(const Op& op, const WireRequest& request, Cursor* cursor,
                   ConnModel* model, SpanRecorder* r);
  std::string Write(const Op& op, const WireRequest& request, ConnModel* model,
                    SpanRecorder* r);
  void Encode(WireResponse& response, SpanRecorder* r);
  bool ReplicaAdd(const DistinguishedName& dn, EntrySpec spec, SpanRecorder* r);
  bool ReplicaDelete(const DistinguishedName& dn, SpanRecorder* r);
  bool ReplicaLog(ChangeRecord record, SpanRecorder* r);

  DirectoryServer* server_;
  Directory* replica_;
  const IncrementalValidator* validator_;
  WriteAheadLog* replica_wal_;
  ClassId person_;
};

void Replay::Encode(WireResponse& response, SpanRecorder* r) {
  Scope span(r, "wire.encode");
  std::string frame = EncodeResponseFrame(response);
  counters.response_bytes += frame.size();
}

std::string Replay::Execute(const Op& op, const std::string& frame,
                            Cursor* cursor, ConnModel* model, SpanRecorder* r) {
  WireRequest request;
  {
    Scope span(r, "wire.decode");
    size_t consumed = 0;
    auto extracted = ExtractFrame(frame, kMaxFramePayload, &request, &consumed);
    if (!extracted.ok() || !*extracted) return "replay: bad request frame";
  }
  switch (op.kind) {
    case OpKind::kLookup:
    case OpKind::kList:
      return Search(op, request, model, r);
    case OpKind::kPage:
      return Page(op, request, cursor, model, r);
    default:
      return Write(op, request, model, r);
  }
}

std::string Replay::Search(const Op& op, const WireRequest& request,
                           ConnModel* model, SpanRecorder* r) {
  std::string_view base, filter;
  uint8_t scope = 0;
  {
    Scope span(r, "wire.decode");
    WireCursor c(request.body);
    auto b = c.GetString();
    auto s = c.GetU8();
    auto f = c.GetString();
    if (!b.ok() || !s.ok() || !f.ok()) return "replay: bad search body";
    base = *b;
    scope = *s;
    filter = *f;
  }
  PinnedSnapshot snap;
  {
    Scope span(r, "model.pin");
    snap = server_->PinSnapshot();
  }
  Result<std::vector<EntryId>> hits = Status::Internal("unset");
  {
    Scope span(r, op.kind == OpKind::kList ? "query.list" : "query.lookup");
    hits = SnapshotSearch(*snap, server_->vocab(), base, scope, filter);
  }
  if (op.kind == OpKind::kList && hits.ok()) {
    const EntrySet* members = snap->ClassSet(person_);
    counters.list_scanned += members == nullptr ? 0 : members->Count();
    counters.list_hits += hits->size();
  }
  WireResponse response;
  response.op = request.op;
  response.request_id = request.request_id;
  {
    Scope span(r, "wire.encode");
    if (hits.ok()) {
      PutU32(response.body, static_cast<uint32_t>(hits->size()));
      for (EntryId id : *hits) PutU64(response.body, id);
    }
  }
  {
    Scope span(r, "model.pin");
    snap.Release();
  }
  Encode(response, r);
  if (!hits.ok()) return "search failed: " + hits.status().ToString();
  return model->CheckSearch(op, std::vector<uint64_t>(hits->begin(), hits->end()));
}

std::string Replay::Page(const Op& op, const WireRequest& request,
                         Cursor* cursor, ConnModel* model, SpanRecorder* r) {
  std::string_view base, filter;
  uint8_t scope = 0;
  uint32_t page_size = 0;
  uint64_t from_label = 0;
  {
    Scope span(r, "wire.decode");
    WireCursor c(request.body);
    auto b = c.GetString();
    auto s = c.GetU8();
    auto f = c.GetString();
    auto n = c.GetU32();
    auto k = c.GetString();
    if (!b.ok() || !s.ok() || !f.ok() || !n.ok() || !k.ok()) {
      return "replay: bad page body";
    }
    base = *b;
    scope = *s;
    filter = *f;
    page_size = *n;
    if (!k->empty()) {
      auto cookie = DecodeSearchCookie(*k);
      if (!cookie.ok()) return "replay: bad cookie";
      from_label = cookie->next_label;
    }
  }
  DirectorySnapshot snap;
  {
    Scope span(r, "model.pin");
    if (!op.continues_scan) {
      PinnedSnapshot pinned = server_->PinSnapshot();
      snap = *pinned;
    } else {
      snap = cursor->snap;
    }
  }
  std::string entries;
  Result<std::vector<SnapshotPageHit>> page = Status::Internal("unset");
  bool has_more = false;
  {
    Scope span(r, "query.page");
    page = SnapshotSearchPage(snap, server_->vocab(), base, scope, filter,
                              from_label, page_size + 1);
    if (page.ok()) {
      has_more = page->size() > page_size;
      if (has_more) page->resize(page_size);
      for (const SnapshotPageHit& hit : *page) {
        auto dn = SnapshotEntryDn(snap, hit.id);
        const std::string* payload = snap.EntryPayload(hit.id);
        if (!dn.ok() || payload == nullptr) return "replay: entry payload missing";
        PutU64(entries, hit.id);
        PutString(entries, *dn);
        WireCursor skip(*payload);
        (void)skip.GetString();
        entries.append(payload->data() + (payload->size() - skip.remaining()),
                       skip.remaining());
      }
    }
  }
  if (!page.ok()) return "page failed: " + page.status().ToString();
  const EntrySet* members = snap.ClassSet(person_);
  counters.page_scanned += members == nullptr ? 0 : members->Count();
  counters.page_hits += page->size();

  WireResponse response;
  response.op = request.op;
  response.request_id = request.request_id;
  {
    Scope span(r, "wire.encode");
    std::string cookie;
    if (has_more) {
      cookie = EncodeSearchCookie(
          WireSearchCookie{1, snap.version, page->back().label + 1});
    }
    PutU32(response.body, static_cast<uint32_t>(page->size()));
    PutU8(response.body, has_more ? 1 : 0);
    PutString(response.body, cookie);
    response.body += entries;
  }
  Encode(response, r);
  cursor->open = has_more;
  if (has_more) {
    cursor->snap = snap;
    cursor->next_label = page->back().label + 1;
  } else {
    cursor->snap = DirectorySnapshot();
  }
  std::vector<uint64_t> ids;
  std::string first_dn;
  for (const SnapshotPageHit& hit : *page) ids.push_back(hit.id);
  if (!page->empty()) first_dn = *SnapshotEntryDn(snap, page->front().id);
  return model->CheckPage(op, ids, first_dn, has_more);
}

bool Replay::ReplicaLog(ChangeRecord record, SpanRecorder* r) {
  std::vector<ChangeRecord> records;
  records.push_back(std::move(record));
  const std::string payload = ChangeRecordsToLdif(records, replica_->vocab());
  counters.wal_bytes += payload.size();
  ++counters.wal_writes;
  Scope span(r, "server.wal.append");
  return replica_wal_->Append(payload).ok();
}

bool Replay::ReplicaAdd(const DistinguishedName& dn, EntrySpec spec,
                        SpanRecorder* r) {
  ChangeRecord record;
  record.kind = ChangeRecord::Kind::kAdd;
  record.dn = dn.ToString();
  record.spec = spec;
  Result<EntryId> id = Status::Internal("unset");
  {
    Scope span(r, "model.apply");
    auto parent = ResolveDn(*replica_, dn.Parent());
    if (!parent.ok()) return false;
    spec.rdn = dn.Leaf();
    id = replica_->AddEntryFromSpec(*parent, spec);
  }
  if (!id.ok()) return false;
  bool legal = false;
  {
    Scope span(r, "update.insert_check");
    EntrySet delta(replica_->IdCapacity());
    delta.Insert(*id);
    std::vector<Violation> violations;
    legal = validator_->CheckAfterInsert(*replica_, delta, &violations);
  }
  {
    Scope span(r, "model.publish");
    replica_->PublishSnapshot();
  }
  return legal && ReplicaLog(std::move(record), r);
}

bool Replay::ReplicaDelete(const DistinguishedName& dn, SpanRecorder* r) {
  Result<EntryId> id = Status::Internal("unset");
  {
    Scope span(r, "model.apply");
    id = ResolveDn(*replica_, dn);
  }
  if (!id.ok()) return false;
  bool legal = false;
  {
    Scope span(r, "update.delete_check");
    EntrySet delta(replica_->IdCapacity());
    delta.Insert(*id);
    std::vector<Violation> violations;
    legal = validator_->CheckBeforeDeleteBatch(*replica_, {*id}, delta,
                                               &violations);
  }
  {
    Scope span(r, "model.apply");
    if (!replica_->DeleteLeaf(*id).ok()) return false;
  }
  {
    Scope span(r, "model.publish");
    replica_->PublishSnapshot();
  }
  ChangeRecord record;
  record.kind = ChangeRecord::Kind::kDelete;
  record.dn = dn.ToString();
  return legal && ReplicaLog(std::move(record), r);
}

std::string Replay::Write(const Op& op, const WireRequest& request,
                          ConnModel* model, SpanRecorder* r) {
  std::string_view dn_text;
  EntrySpec spec;
  {
    Scope span(r, "wire.decode");
    WireCursor c(request.body);
    auto d = c.GetString();
    if (!d.ok()) return "replay: bad write body";
    dn_text = *d;
    if (op.kind != OpKind::kDelete) {
      auto nclasses = c.GetU16();
      if (!nclasses.ok()) return "replay: bad add body";
      for (uint16_t i = 0; i < *nclasses; ++i) {
        auto cls = c.GetString();
        if (!cls.ok()) return "replay: bad add body";
        spec.classes.emplace_back(*cls);
      }
      auto nvalues = c.GetU16();
      if (!nvalues.ok()) return "replay: bad add body";
      for (uint16_t i = 0; i < *nvalues; ++i) {
        auto attr = c.GetString();
        auto value = c.GetString();
        if (!attr.ok() || !value.ok()) return "replay: bad add body";
        spec.values.emplace_back(std::string(*attr), std::string(*value));
      }
    }
  }
  Result<DistinguishedName> dn = Status::Internal("unset");
  {
    Scope span(r, "ldap.dn_parse");
    dn = DistinguishedName::Parse(dn_text);
  }
  if (!dn.ok()) return "replay: bad DN " + std::string(dn_text);
  Status status;
  const EntrySpec replica_spec = spec;
  {
    const char* name = op.kind == OpKind::kAdd          ? "server.add"
                       : op.kind == OpKind::kIllegalAdd ? "update.reject"
                                                        : "server.delete";
    Scope span(r, name);
    status = op.kind == OpKind::kDelete ? server_->Delete(*dn)
                                        : server_->Add(*dn, std::move(spec));
  }
  WireResponse response;
  response.op = request.op;
  response.request_id = request.request_id;
  if (!status.ok()) {
    response.code = WireCodeFromStatus(status);
    response.retryable = status.retryable();
    response.message = status.ToString();
  }
  Encode(response, r);
  std::string why = model->OnWrite(op, status.ok(), status.code() == StatusCode::kIllegal);
  if (!why.empty()) return why + ": " + status.ToString();
  if (status.ok()) {
    const bool mirrored = op.kind == OpKind::kAdd ? ReplicaAdd(*dn, replica_spec, r)
                                                  : ReplicaDelete(*dn, r);
    if (!mirrored) return "replica diverged at " + dn->ToString();
  }
  return "";
}

}  // namespace

int RunReplay(const Flags& flags) {
  Workload workload = Workload::kLookup;
  if (!ParseWorkload(flags.Str("workload"), &workload)) {
    std::fprintf(stderr, "perfbench replay: needs --workload lookup|churn\n");
    return 2;
  }
  const uint64_t seed = flags.Uint("seed", 1);
  const size_t entries = flags.Uint("entries", 100000);
  const int conns = static_cast<int>(flags.Uint("conns", 4));
  const double seconds = flags.Real("seconds", 5);
  const std::string wal_dir = flags.Str("wal-dir");
  const std::string trace_out = flags.Str("trace-out");
  if (wal_dir.empty()) {
    std::fprintf(stderr, "perfbench replay: --wal-dir is required\n");
    return 2;
  }

  auto fail = [](const std::string& why) {
    std::fprintf(stderr, "perfbench replay: %s\n", why.c_str());
    return 1;
  };
  // Set-up, traced with the process clock (the full check fans out).
  SpanRecorder setup(/*process_cpu=*/true);
  std::string schema_text, ldif;
  if (!ReadFile(flags.Str("schema"), &schema_text) ||
      !ReadFile(flags.Str("ldif"), &ldif)) {
    return fail("cannot read --schema / --ldif");
  }
  auto vocab = std::make_shared<Vocabulary>();
  Result<DirectorySchema> schema = Status::Internal("unset");
  {
    Scope span(&setup, "schema.parse");
    schema = ParseDirectorySchema(schema_text, vocab);
  }
  if (!schema.ok() || !schema->Validate().ok()) return fail("bad schema");
  {
    Scope span(&setup, "consistency.check");
    ConsistencyChecker consistency(*schema);
    if (!consistency.EnsureConsistent().ok()) return fail("inconsistent schema");
  }
  Directory replica(vocab);
  {
    Scope span(&setup, "ldap.load_ldif");
    if (!LoadLdif(ldif, &replica).ok()) return fail("LDIF does not load");
  }
  {
    LegalityChecker checker(*schema);
    std::vector<Violation> violations;
    {
      Scope span(&setup, "core.content");
      checker.CheckContent(replica, &violations);
    }
    {
      Scope span(&setup, "core.structure");
      checker.CheckStructure(replica, &violations);
    }
    {
      Scope span(&setup, "core.keys");
      checker.CheckKeys(replica, &violations);
    }
    if (!violations.empty()) return fail("generated directory is illegal");
  }
  auto server = DirectoryServer::Create(schema_text);
  if (!server.ok() || !server->ImportLdif(ldif).ok()) {
    return fail("server does not import the LDIF");
  }
  std::error_code ec;
  std::filesystem::create_directories(wal_dir + "/replica", ec);
  auto replica_wal = WriteAheadLog::Open(wal_dir + "/replica", WalOptions{}, 1);
  if (ec || !replica_wal.ok() || !server->EnableWal(wal_dir + "/server").ok()) {
    return fail("cannot open the WALs under " + wal_dir);
  }
  server->EnableMvcc();
  replica.EnableSnapshots();
  ldif.clear();
  ldif.shrink_to_fit();

  // The server's own Figure-5 configuration (DirectoryServer::Apply).
  IncrementalValidator::Options options;
  options.check = server->check_options();
  options.delta_driven_insert = true;
  options.ancestor_path_optimization = true;
  IncrementalValidator validator(*schema, options);

  const DirectoryPlan plan = PlanDirectory(seed, entries, false);
  Replay replay(&*server, &replica, &validator, replica_wal->get());
  std::vector<StreamGen> gens;
  std::vector<ConnModel> models;
  std::vector<Cursor> cursors(static_cast<size_t>(conns) * kScanSlots);
  for (int c = 0; c < conns; ++c) {
    gens.emplace_back(&plan, workload, seed, c, conns);
    models.emplace_back(&plan);
  }

  SpanRecorder recorder(/*process_cpu=*/false);
  Rng coin(Mix64(seed ^ 0x7472616365ULL));
  uint64_t attempted = 0, failed = 0;
  uint64_t traced_ops = 0, untraced_ops = 0;
  uint64_t traced_ns = 0, untraced_ns = 0;
  uint64_t kind_traced[kOpKinds] = {};
  std::vector<OpKind> kind_of_request;  ///< by request id - 1
  const uint64_t deadline = WallNs() + static_cast<uint64_t>(seconds * 1e9);
  for (uint64_t k = 0; WallNs() < deadline; ++k) {
    const int c = static_cast<int>(k % conns);
    const Op op = gens[c].Next();
    Cursor& cursor = cursors[static_cast<size_t>(c) * kScanSlots + op.scan_slot];
    std::string cookie;
    if (op.continues_scan && cursor.open) {
      cookie = EncodeSearchCookie(
          WireSearchCookie{1, cursor.snap.version, cursor.next_label});
    }
    const std::string frame = EncodeOp(op, k + 1, cookie);
    kind_of_request.push_back(op.kind);
    const bool traced = coin.Unit() < 0.5;
    recorder.set_request(k + 1);
    const uint64_t t0 = WallNs();
    std::string why;
    {
      Scope root(traced ? &recorder : nullptr, "op");
      why = replay.Execute(op, frame, &cursor, &models[c],
                           traced ? &recorder : nullptr);
    }
    const uint64_t ns = WallNs() - t0;
    if (traced) {
      ++traced_ops;
      traced_ns += ns;
      ++kind_traced[static_cast<int>(op.kind)];
    } else {
      ++untraced_ops;
      untraced_ns += ns;
    }
    ++attempted;
    if (!why.empty()) {
      if (failed < 8) std::fprintf(stderr, "perfbench replay: failed: %s\n", why.c_str());
      ++failed;
    }
  }

  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"traced_ops\": %llu, ",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(traced_ops));
  std::printf("\"op_ns\": {\"traced\": %.3f, \"untraced\": %.3f}, ",
              traced_ops ? static_cast<double>(traced_ns) / traced_ops : 0.0,
              untraced_ops ? static_cast<double>(untraced_ns) / untraced_ops : 0.0);
  const Counters& n = replay.counters;
  std::printf("\"counts\": {\"list_scanned_per_hit\": %.4f, "
              "\"page_scanned_per_hit\": %.4f, \"response_bytes_per_op\": %.3f, "
              "\"wal_bytes_per_write\": %.3f}, ",
              n.list_hits ? static_cast<double>(n.list_scanned) / n.list_hits : 0.0,
              n.page_hits ? static_cast<double>(n.page_scanned) / n.page_hits : 0.0,
              attempted ? static_cast<double>(n.response_bytes) / attempted : 0.0,
              n.wal_writes ? static_cast<double>(n.wal_bytes) / n.wal_writes : 0.0);
  // Self times per op of each kind: summed over the kind's traced ops,
  // divided by their count. The ledger weights them by a measured mix.
  std::printf("\"per_kind\": {");
  for (int k = 0; k < kOpKinds; ++k) {
    const auto kind = static_cast<OpKind>(k);
    const double ops = static_cast<double>(kind_traced[k]);
    std::printf("%s\"%s\": {\"ops\": %llu, \"spans\": {", k ? ", " : "",
                OpKindName(kind), static_cast<unsigned long long>(kind_traced[k]));
    bool first = true;
    for (const auto& [name, t] : recorder.SelfTimes([&](uint64_t request) {
           return kind_of_request[request - 1] == kind;
         })) {
      std::printf("%s\"%s\": {\"calls\": %.4f, \"wall_ns\": %.3f, \"cpu_ns\": %.3f}",
                  first ? "" : ", ", name.c_str(), t.calls / ops, t.wall_ns / ops,
                  t.cpu_ns / ops);
      first = false;
    }
    std::printf("}}");
  }
  std::printf("}, \"setup\": {");
  bool first = true;
  for (const auto& [name, t] : setup.SelfTimes()) {
    std::printf("%s\"%s\": {\"wall_ms\": %.6f, \"cpu_ms\": %.6f}", first ? "" : ", ",
                name.c_str(), t.wall_ns / 1e6, t.cpu_ns / 1e6);
    first = false;
  }
  std::printf("}}\n");
  if (!trace_out.empty() && !recorder.WriteChromeTrace(trace_out, 100000)) {
    std::fprintf(stderr, "perfbench replay: cannot write %s\n", trace_out.c_str());
  }
  return 0;
}

}  // namespace perfbench
