#include "server/directory_server.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "consistency/inference.h"
#include "core/legality_checker.h"
#include "ldap/filter.h"
#include "ldap/ldif.h"
#include "schema/schema_format.h"
#include "server/request_stages.h"
#include "update/incremental.h"
#include "util/failpoint.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace ldapbound {

namespace {

// Process-wide per-operation mirrors of the per-server StatCounters
// (ldapbound_server_* families). `ok`/`rejected` are incremented at
// exactly the sites that bump the local counters, so the global series
// stay consistent with the sum of every live server's stats().
struct OpMetrics {
  Counter& ok;
  Counter& rejected;
  Histogram& latency_ns;
};

OpMetrics MakeOpMetrics(std::string_view op) {
  MetricRegistry& r = MetricRegistry::Default();
  std::string prefix = "op=\"" + std::string(op) + "\"";
  return OpMetrics{
      r.GetCounter("ldapbound_server_ops_total",
                   "DirectoryServer operations by outcome",
                   prefix + ",outcome=\"ok\""),
      r.GetCounter("ldapbound_server_ops_total",
                   "DirectoryServer operations by outcome",
                   prefix + ",outcome=\"rejected\""),
      r.GetHistogram("ldapbound_server_op_ns",
                     "Wall nanoseconds of one DirectoryServer operation",
                     prefix),
  };
}

struct ServerMetrics {
  OpMetrics add;
  OpMetrics del;
  OpMetrics apply;
  OpMetrics modify;
  OpMetrics modify_dn;
  OpMetrics search;
  OpMetrics import;
};

ServerMetrics& GetServerMetrics() {
  // Registered once, leaked with the registry (see util/metrics.h).
  static ServerMetrics* metrics = new ServerMetrics{
      MakeOpMetrics("add"),       MakeOpMetrics("delete"),
      MakeOpMetrics("apply"),     MakeOpMetrics("modify"),
      MakeOpMetrics("modify_dn"), MakeOpMetrics("search"),
      MakeOpMetrics("import"),
  };
  return *metrics;
}

constexpr size_t kMaxDetailChars = 512;

/// Deadline check at the last cancellation-safe point: the write mutex is
/// held but no side effect has happened yet. Past this point the commit
/// always runs to durability (util/deadline.h).
Status CheckQueuedDeadline(AdmissionController* admission,
                           const Deadline& deadline) {
  if (!deadline.expired()) return Status::OK();
  if (admission != nullptr) admission->RecordQueuedDeadlineShed();
  return Status::DeadlineExceeded(
      "commit cancelled while queued for the write mutex: op deadline "
      "expired before any work (safe to retry with a fresh budget)");
}

uint64_t WallClockMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Per-operation diagnostics scope: assigns the operation id, tags
/// same-thread trace spans with it (TraceOpScope), captures those spans
/// for the slow-op log (SpanCollector), and on destruction emits one
/// structured log event and offers the record to the SlowOpLog.
///
/// Fully passive — no id drawn, nothing captured — when neither the slow
/// log nor the JSON log is on, and when an outer operation is already
/// being tracked on this thread (Add/Delete delegate to Apply; the outer
/// call is the operation).
class OpTracker {
 public:
  OpTracker(SlowOpLog* log, std::atomic<uint64_t>& next_op_id, const char* op,
            std::string target) {
    bool want_json = JsonLog::Default().enabled();
    if ((log == nullptr && !want_json) || TraceOpScope::current() != 0) return;
    log_ = log;
    op_ = op;
    target_ = std::move(target);
    op_id_ = next_op_id.fetch_add(1, std::memory_order_relaxed);
    start_unix_ms_ = WallClockMs();
    start_ns_ = Tracer::NowNs();
    scope_.emplace(op_id_);
    if (log_ != nullptr) collector_.emplace();
    active_ = true;
  }
  OpTracker(const OpTracker&) = delete;
  OpTracker& operator=(const OpTracker&) = delete;

  void Ok() { outcome_ = "ok"; }
  void Rejected(std::string_view detail, std::string explain = "") {
    outcome_ = "rejected";
    detail_ = detail.substr(0, kMaxDetailChars);
    explain_ = std::move(explain);
  }

  ~OpTracker() {
    if (!active_) return;
    uint64_t duration_ns = Tracer::NowNs() - start_ns_;
    std::vector<Tracer::Event> spans;
    if (collector_.has_value()) {
      spans = collector_->TakeEvents();
      collector_.reset();
    }
    scope_.reset();
    JsonLog& json = JsonLog::Default();
    if (json.enabled()) {
      LogEvent event("op");
      event.Num("op_id", op_id_)
          .Str("op", op_)
          .Str("target", target_)
          .Str("outcome", outcome_)
          .Num("duration_ns", duration_ns);
      if (!detail_.empty()) event.Str("detail", detail_);
      json.Write(event);
    }
    if (log_ != nullptr) {
      SlowOp record;
      record.op_id = op_id_;
      record.op = op_;
      record.target = std::move(target_);
      record.outcome = outcome_;
      record.detail = std::move(detail_);
      record.explain = std::move(explain_);
      record.start_unix_ms = start_unix_ms_;
      record.duration_ns = duration_ns;
      record.spans = std::move(spans);
      log_->Record(std::move(record));
    }
  }

 private:
  SlowOpLog* log_ = nullptr;
  const char* op_ = "";
  std::string target_;
  std::string outcome_ = "error";  // early exits that never mark an outcome
  std::string detail_;
  std::string explain_;
  uint64_t op_id_ = 0;
  uint64_t start_unix_ms_ = 0;
  uint64_t start_ns_ = 0;
  std::optional<TraceOpScope> scope_;
  std::optional<SpanCollector> collector_;
  bool active_ = false;
};

/// One "detected by" line per violation — the constraint-level summary the
/// slow-op record keeps alongside the human-readable detail.
std::string ExplainViolations(const std::vector<Violation>& violations,
                              const Vocabulary& vocab) {
  std::string out;
  for (const Violation& v : violations) {
    if (!out.empty()) out += '\n';
    out += v.DetectedBy(vocab);
  }
  return out;
}

/// Refuses inserts that name a class or attribute the vocabulary does not
/// know, before anything is mutated. Serving resolves names without
/// interning them: the Vocabulary is shared with lock-free snapshot
/// readers, and a refused add would leave its names interned for good.
/// Such an add is illegal anyway (an unknown class, or an attribute no
/// class allows).
Status CheckNamesKnown(const UpdateTransaction& txn, const Vocabulary& vocab) {
  std::vector<std::string> unknown;
  auto check_class = [&](const std::string& name) {
    if (!vocab.FindClass(name).ok()) unknown.push_back("class '" + name + "'");
  };
  for (const UpdateOp& op : txn.ops()) {
    if (op.kind != UpdateOp::Kind::kInsert) continue;
    for (const std::string& cls : op.spec.classes) check_class(cls);
    for (const auto& [attr, text] : op.spec.values) {
      Result<AttributeId> id = vocab.FindAttribute(attr);
      if (!id.ok()) {
        unknown.push_back("attribute '" + attr + "'");
      } else if (*id == vocab.objectclass_attr()) {
        check_class(text);
      }
    }
  }
  if (unknown.empty()) return Status::OK();
  return Status::Illegal("names unknown to the schema: " +
                         Join(unknown, ", "));
}

}  // namespace

DirectoryServer::DirectoryServer(std::shared_ptr<Vocabulary> vocab,
                                 DirectorySchema schema)
    : vocab_(std::move(vocab)),
      schema_(std::make_unique<DirectorySchema>(std::move(schema))),
      directory_(std::make_unique<Directory>(vocab_)),
      write_mu_(std::make_unique<std::mutex>()),
      stats_(std::make_unique<StatCounters>()),
      health_(std::make_unique<HealthManager>()) {}

Result<DirectoryServer> DirectoryServer::Create(
    std::string_view schema_text) {
  auto vocab = std::make_shared<Vocabulary>();
  LDAPBOUND_ASSIGN_OR_RETURN(DirectorySchema schema,
                             ParseDirectorySchema(schema_text, vocab));
  return Create(std::move(vocab), std::move(schema));
}

Result<DirectoryServer> DirectoryServer::Create(
    std::shared_ptr<Vocabulary> vocab, DirectorySchema schema) {
  LDAPBOUND_RETURN_IF_ERROR(schema.Validate());
  ConsistencyChecker consistency(schema);
  LDAPBOUND_RETURN_IF_ERROR(consistency.EnsureConsistent());
  return DirectoryServer(std::move(vocab), std::move(schema));
}

// Add and Delete delegate to Apply, so their latency histograms nest the
// apply one; their outcome counters are independent of the apply family.
Status DirectoryServer::Add(const DistinguishedName& dn, EntrySpec spec,
                            Deadline deadline) {
  OpMetrics& op = GetServerMetrics().add;
  OpTracker tracker(slow_ops_.get(), stats_->next_op_id, "add", dn.ToString());
  LatencyTimer timer(op.latency_ns);
  UpdateTransaction txn;
  txn.Insert(dn, std::move(spec));
  Status status = Apply(txn, nullptr, deadline);
  if (status.ok()) {
    ++stats_->adds;
    tracker.Ok();
  } else {
    tracker.Rejected(status.message());
  }
  (status.ok() ? op.ok : op.rejected).Increment();
  return status;
}

Status DirectoryServer::Delete(const DistinguishedName& dn,
                               Deadline deadline) {
  OpMetrics& op = GetServerMetrics().del;
  OpTracker tracker(slow_ops_.get(), stats_->next_op_id, "delete",
                    dn.ToString());
  LatencyTimer timer(op.latency_ns);
  UpdateTransaction txn;
  txn.Delete(dn);
  Status status = Apply(txn, nullptr, deadline);
  if (status.ok()) {
    ++stats_->deletes;
    tracker.Ok();
  } else {
    tracker.Rejected(status.message());
  }
  (status.ok() ? op.ok : op.rejected).Increment();
  return status;
}

Status DirectoryServer::CheckWritable() const {
  HealthState state = health_->state();
  if (state == HealthState::kHealthy) return Status::OK();
  std::string reason = health_->reason();
  return Status::Unavailable(
      "server is read-only (" + std::string(HealthStateName(state)) +
      (reason.empty() ? "" : ": " + reason) +
      ") — reads stay available; retry writes once the server recovers");
}

Status DirectoryServer::AdmitWrite(Deadline* deadline) {
  if (admission_ == nullptr) {
    // No admission control configured; explicit deadlines still hold.
    if (deadline->expired()) {
      return Status::DeadlineExceeded(
          "op deadline expired before admission (no work was done; safe to "
          "retry with a fresh budget)");
    }
    WireStageScope::MarkCurrent(WireStage::kAdmitted);
    return Status::OK();
  }
  if (deadline->infinite()) *deadline = admission_->DefaultDeadline();
  Status status = admission_->AdmitWrite(*deadline);
  if (!status.ok() && admission_->TakeDegradeSignal()) {
    health_->ReportOverload(admission_->shed_streak());
  }
  if (status.ok()) WireStageScope::MarkCurrent(WireStage::kAdmitted);
  return status;
}

Status DirectoryServer::WalPersist(std::string payload,
                                   const Deadline& deadline,
                                   std::unique_lock<std::mutex>& lock) {
  if (wal_ == nullptr) {
    lock.unlock();
    return Status::OK();
  }
  Status status;
  if (group_commit_ != nullptr) {
    GroupCommitQueue::Ticket* ticket = nullptr;
    status = [&]() -> Status {
      // Mid-commit crash point: the in-memory commit is applied but
      // nothing has reached the log — after recovery the commit must be
      // absent (it was never acknowledged).
      LDAPBOUND_FAILPOINT("server.commit");
      // The deadline only clamps the leader's hold window; it cannot
      // cancel this commit any more (it is snapshot-visible).
      ticket = group_commit_->Enqueue(std::move(payload), deadline);
      return Status::OK();
    }();
    lock.unlock();
    if (status.ok()) status = group_commit_->Wait(ticket);
  } else {
    status = [&]() -> Status {
      LDAPBOUND_FAILPOINT("server.commit");
      WireStageScope::MarkCurrent(WireStage::kCommitEnqueued);
      return wal_->Append(payload);
    }();
    if (!status.ok()) {
      // Degrade before releasing the mutex: in inline mode no queue
      // poisoning protects the log, so the next writer must already see
      // the unhealthy state when it acquires the mutex.
      stats_->wal_resync_needed.store(true, std::memory_order_release);
      health_->ReportWalFailure(status);
    }
    lock.unlock();
  }
  if (!status.ok()) {
    // The in-memory state is now ahead of the durable state and cannot be
    // trusted as a replication source; degrade to read-only. Under group
    // commit a racing writer may already be past CheckWritable — the
    // poisoned queue fails its flush without touching the log. The
    // recovery probe (EnableResilience) repairs this automatically via a
    // snapshot resync; without it, restart via Recover().
    stats_->wal_resync_needed.store(true, std::memory_order_release);
    health_->ReportWalFailure(status);
    return Status(status.code(),
                  "write-ahead log append failed (server is now read-only; "
                  "recover from '" + wal_->dir() + "'): " + status.message());
  }
  WireStageScope::MarkCurrent(WireStage::kCommitDurable);
  return status;
}

Status DirectoryServer::Apply(const UpdateTransaction& txn,
                              CommitStats* stats, Deadline deadline) {
  OpMetrics& op = GetServerMetrics().apply;
  OpTracker tracker(slow_ops_.get(), stats_->next_op_id, "apply",
                    "txn(" + std::to_string(txn.ops().size()) + " ops)");
  LDAPBOUND_TRACE_SPAN("server.apply");
  LatencyTimer timer(op.latency_ns);
  Status admitted = AdmitWrite(&deadline);
  if (!admitted.ok()) {
    tracker.Rejected(admitted.message());
    return admitted;
  }
  std::unique_lock<std::mutex> lock(*write_mu_);
  LDAPBOUND_RETURN_IF_ERROR(CheckWritable());
  LDAPBOUND_RETURN_IF_ERROR(CheckQueuedDeadline(admission_.get(), deadline));
  if (Status names = CheckNamesKnown(txn, *vocab_); !names.ok()) {
    ++stats_->rejected;
    op.rejected.Increment();
    tracker.Rejected(names.message());
    return names;
  }
  IncrementalValidator::Options validator_options;
  validator_options.check = check_options_;
  // The serving path wants commit cost O(|Δ|), not O(|D|): walk the delta
  // directly for insert checks and test only the doomed subtrees' surviving
  // ancestors for delete checks (both property-tested equivalent to the
  // paper-faithful Δ-queries).
  validator_options.delta_driven_insert = true;
  validator_options.ancestor_path_optimization = true;
  TransactionExecutor executor(directory_.get(), *schema_, validator_options);
  Status status = executor.Commit(txn, stats);
  if (!status.ok()) {
    ++stats_->rejected;
    op.rejected.Increment();
    tracker.Rejected(status.message());
    return status;
  }
  // Snapshot readers must see this transaction once Apply returns OK:
  // publish under the mutex, before the durability wait.
  PublishSnapshotLocked();
  if ((changelog_ != nullptr || wal_ != nullptr) && !txn.empty()) {
    uint64_t txn_id = NextRecordTxnId();
    std::vector<ChangeRecord> records;
    records.reserve(txn.ops().size());
    for (const UpdateOp& op : txn.ops()) {
      ChangeRecord record;
      record.txn = txn_id;
      record.dn = op.dn.ToString();
      if (op.kind == UpdateOp::Kind::kInsert) {
        record.kind = ChangeRecord::Kind::kAdd;
        record.spec = op.spec;
      } else {
        record.kind = ChangeRecord::Kind::kDelete;
      }
      records.push_back(std::move(record));
    }
    std::string payload;
    if (wal_ != nullptr) payload = ChangeRecordsToLdif(records, *vocab_);
    // The changelog mirrors the in-memory commit order, so it is appended
    // under the write mutex, before the durability wait — concurrent
    // writers cannot interleave its records out of commit order. (Should
    // the WAL append then fail, the server goes read-only and the extra
    // record still describes the in-memory state.)
    if (changelog_ != nullptr) {
      for (ChangeRecord& record : records) {
        changelog_->Append(std::move(record));
      }
    }
    // Durability before acknowledgement: the commit only returns OK once
    // its log frame — or the frame's group — is on disk. Releases the
    // write mutex.
    LDAPBOUND_RETURN_IF_ERROR(WalPersist(std::move(payload), deadline, lock));
  }
  op.ok.Increment();
  tracker.Ok();
  return status;
}

DirectoryServer::Modification DirectoryServer::Inverse(
    const Modification& mod) {
  Modification inverse = mod;
  switch (mod.kind) {
    case Modification::Kind::kAddValue:
      inverse.kind = Modification::Kind::kRemoveValue;
      break;
    case Modification::Kind::kRemoveValue:
      inverse.kind = Modification::Kind::kAddValue;
      break;
    case Modification::Kind::kAddClass:
      inverse.kind = Modification::Kind::kRemoveClass;
      break;
    case Modification::Kind::kRemoveClass:
      inverse.kind = Modification::Kind::kAddClass;
      break;
  }
  return inverse;
}

Status DirectoryServer::ApplyOneModification(EntryId id,
                                             const Modification& mod,
                                             std::vector<Modification>* undo) {
  const Entry& entry = directory_->entry(id);
  switch (mod.kind) {
    case Modification::Kind::kAddValue:
      if (entry.HasValue(mod.attr, mod.value)) return Status::OK();  // no-op
      LDAPBOUND_RETURN_IF_ERROR(
          directory_->AddValue(id, mod.attr, mod.value));
      break;
    case Modification::Kind::kRemoveValue:
      if (!entry.HasValue(mod.attr, mod.value)) return Status::OK();
      LDAPBOUND_RETURN_IF_ERROR(
          directory_->RemoveValue(id, mod.attr, mod.value));
      break;
    case Modification::Kind::kAddClass:
      if (entry.HasClass(mod.cls)) return Status::OK();
      LDAPBOUND_RETURN_IF_ERROR(directory_->AddClass(id, mod.cls));
      break;
    case Modification::Kind::kRemoveClass:
      if (!entry.HasClass(mod.cls)) return Status::OK();
      LDAPBOUND_RETURN_IF_ERROR(directory_->RemoveClass(id, mod.cls));
      break;
  }
  undo->push_back(Inverse(mod));
  return Status::OK();
}

Status DirectoryServer::Modify(const DistinguishedName& dn,
                               const std::vector<Modification>& mods,
                               Deadline deadline) {
  OpMetrics& op = GetServerMetrics().modify;
  OpTracker tracker(slow_ops_.get(), stats_->next_op_id, "modify",
                    dn.ToString());
  LDAPBOUND_TRACE_SPAN("server.modify");
  LatencyTimer timer(op.latency_ns);
  Status admitted = AdmitWrite(&deadline);
  if (!admitted.ok()) {
    tracker.Rejected(admitted.message());
    return admitted;
  }
  std::unique_lock<std::mutex> lock(*write_mu_);
  LDAPBOUND_RETURN_IF_ERROR(CheckWritable());
  LDAPBOUND_RETURN_IF_ERROR(CheckQueuedDeadline(admission_.get(), deadline));
  auto resolved = ResolveDn(*directory_, dn);
  if (!resolved.ok()) {
    ++stats_->rejected;
    op.rejected.Increment();
    tracker.Rejected(resolved.status().message());
    return resolved.status();
  }
  EntryId id = *resolved;

  std::vector<Modification> undo;
  auto rollback = [&]() {
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
      std::vector<Modification> ignored;
      (void)ApplyOneModification(id, *it, &ignored);
    }
  };

  for (const Modification& mod : mods) {
    Status status = ApplyOneModification(id, mod, &undo);
    if (!status.ok()) {
      rollback();
      ++stats_->rejected;
      op.rejected.Increment();
      tracker.Rejected(status.message());
      return status;
    }
  }

  // Which class memberships actually changed (derived from the undo log:
  // it records only effective mutations).
  std::vector<ClassId> added_classes;
  std::vector<ClassId> removed_classes;
  for (const Modification& inverse : undo) {
    if (inverse.kind == Modification::Kind::kRemoveClass) {
      added_classes.push_back(inverse.cls);  // inverse of an effective add
    } else if (inverse.kind == Modification::Kind::kAddClass) {
      removed_classes.push_back(inverse.cls);
    }
  }

  // Re-check. The reclassification validator covers the entry's content
  // and exactly the entries whose structural requirements its class
  // changes can affect (none for a value-only modify). Keys take the
  // insertion's Δ check with Δ = the modified entry: only its values can
  // have become duplicates.
  IncrementalValidator::Options validator_options;
  validator_options.check = check_options_;
  IncrementalValidator validator(*schema_, validator_options);
  std::vector<Violation> violations;
  bool ok = validator.CheckAfterReclassify(*directory_, id, added_classes,
                                           removed_classes, &violations);
  EntrySet modified(directory_->IdCapacity());
  modified.Insert(id);
  ok = validator.CheckDeltaKeys(*directory_, modified, &violations) && ok;
  if (!ok) {
    rollback();
    ++stats_->rejected;
    op.rejected.Increment();
    Status status = Status::Illegal("modify of '" + dn.ToString() +
                                    "' violates the schema:\n" +
                                    DescribeViolations(violations, *vocab_));
    tracker.Rejected(status.message(), ExplainViolations(violations, *vocab_));
    return status;
  }
  PublishSnapshotLocked();
  if (changelog_ != nullptr || wal_ != nullptr) {
    ChangeRecord record;
    record.kind = ChangeRecord::Kind::kModify;
    record.txn = NextRecordTxnId();
    record.dn = dn.ToString();
    record.mods = mods;
    std::string payload;
    if (wal_ != nullptr) payload = ChangeRecordsToLdif({record}, *vocab_);
    if (changelog_ != nullptr) changelog_->Append(std::move(record));
    LDAPBOUND_RETURN_IF_ERROR(WalPersist(std::move(payload), deadline, lock));
  }
  ++stats_->modifies;
  op.ok.Increment();
  tracker.Ok();
  return Status::OK();
}

Status DirectoryServer::ModifyDn(const DistinguishedName& dn,
                                 const DistinguishedName& new_parent_dn,
                                 std::string new_rdn, Deadline deadline) {
  OpMetrics& op = GetServerMetrics().modify_dn;
  OpTracker tracker(slow_ops_.get(), stats_->next_op_id, "modify_dn",
                    dn.ToString());
  LDAPBOUND_TRACE_SPAN("server.modify_dn");
  LatencyTimer timer(op.latency_ns);
  Status admitted = AdmitWrite(&deadline);
  if (!admitted.ok()) {
    tracker.Rejected(admitted.message());
    return admitted;
  }
  std::unique_lock<std::mutex> lock(*write_mu_);
  LDAPBOUND_RETURN_IF_ERROR(CheckWritable());
  LDAPBOUND_RETURN_IF_ERROR(CheckQueuedDeadline(admission_.get(), deadline));
  auto entry = ResolveDn(*directory_, dn);
  if (!entry.ok()) {
    ++stats_->rejected;
    op.rejected.Increment();
    tracker.Rejected(entry.status().message());
    return entry.status();
  }
  EntryId new_parent = kInvalidEntryId;
  if (!new_parent_dn.IsEmpty()) {
    auto resolved = ResolveDn(*directory_, new_parent_dn);
    if (!resolved.ok()) {
      ++stats_->rejected;
      op.rejected.Increment();
      tracker.Rejected(resolved.status().message());
      return resolved.status();
    }
    new_parent = *resolved;
  }

  EntryId old_parent = directory_->entry(*entry).parent();
  std::string old_rdn = directory_->entry(*entry).rdn();

  Status status = directory_->MoveSubtree(*entry, new_parent);
  if (!status.ok()) {
    ++stats_->rejected;
    op.rejected.Increment();
    tracker.Rejected(status.message());
    return status;
  }
  if (!new_rdn.empty()) {
    status = directory_->Rename(*entry, new_rdn);
    if (!status.ok()) {
      (void)directory_->MoveSubtree(*entry, old_parent);
      ++stats_->rejected;
      op.rejected.Increment();
      tracker.Rejected(status.message());
      return status;
    }
  }

  IncrementalValidator validator(*schema_);
  std::vector<Violation> violations;
  if (!validator.CheckAfterMove(*directory_, *entry, old_parent,
                                &violations)) {
    (void)directory_->Rename(*entry, old_rdn);
    (void)directory_->MoveSubtree(*entry, old_parent);
    ++stats_->rejected;
    op.rejected.Increment();
    Status illegal = Status::Illegal("moving '" + dn.ToString() +
                                     "' violates the schema:\n" +
                                     DescribeViolations(violations, *vocab_));
    tracker.Rejected(illegal.message(), ExplainViolations(violations, *vocab_));
    return illegal;
  }
  PublishSnapshotLocked();
  if (changelog_ != nullptr || wal_ != nullptr) {
    ChangeRecord record;
    record.kind = ChangeRecord::Kind::kModifyDn;
    record.txn = NextRecordTxnId();
    record.dn = dn.ToString();
    record.new_parent_dn = new_parent_dn.ToString();
    record.new_rdn = directory_->entry(*entry).rdn();
    std::string payload;
    if (wal_ != nullptr) payload = ChangeRecordsToLdif({record}, *vocab_);
    if (changelog_ != nullptr) changelog_->Append(std::move(record));
    LDAPBOUND_RETURN_IF_ERROR(WalPersist(std::move(payload), deadline, lock));
  }
  ++stats_->modifies;
  op.ok.Increment();
  tracker.Ok();
  return Status::OK();
}

Result<std::vector<EntryId>> DirectoryServer::Search(
    const SearchRequest& request, Deadline deadline) const {
  OpMetrics& op = GetServerMetrics().search;
  OpTracker tracker(slow_ops_.get(), stats_->next_op_id, "search",
                    request.base.ToString());
  LDAPBOUND_TRACE_SPAN("server.search");
  LatencyTimer timer(op.latency_ns);
  if (deadline.expired()) {
    op.rejected.Increment();
    Status expired = Status::DeadlineExceeded(
        "search cancelled: deadline expired before the scan started");
    tracker.Rejected(expired.message());
    return expired;
  }
  tracker.Ok();
  stats_->searches.fetch_add(1, std::memory_order_relaxed);
  op.ok.Increment();
  return ldapbound::Search(*directory_, request);
}

Result<std::vector<EntryId>> DirectoryServer::Search(
    std::string_view base_dn, std::string_view filter) const {
  SearchRequest request;
  LDAPBOUND_ASSIGN_OR_RETURN(request.base,
                             DistinguishedName::Parse(base_dn));
  request.scope = SearchScope::kSubtree;
  LDAPBOUND_ASSIGN_OR_RETURN(request.filter, ParseFilter(filter, *vocab_));
  return Search(request);
}

Result<size_t> DirectoryServer::ImportLdif(std::string_view text) {
  OpMetrics& op = GetServerMetrics().import;
  OpTracker tracker(slow_ops_.get(), stats_->next_op_id, "import",
                    "ldif(" + std::to_string(text.size()) + " bytes)");
  LDAPBOUND_TRACE_SPAN("server.import");
  LatencyTimer timer(op.latency_ns);
  std::lock_guard<std::mutex> lock(*write_mu_);
  auto imported = [&]() -> Result<size_t> {
    LDAPBOUND_RETURN_IF_ERROR(CheckWritable());
    // Load into a scratch directory first so failures cannot disturb the
    // live one; on success, load again into the live directory.
    Directory scratch(vocab_);
    {
      std::string current = WriteLdif(*directory_);
      LDAPBOUND_RETURN_IF_ERROR(LoadLdif(current, &scratch).status());
    }
    LDAPBOUND_ASSIGN_OR_RETURN(size_t created, LoadLdif(text, &scratch));
    LegalityChecker checker(*schema_, check_options_);
    LDAPBOUND_RETURN_IF_ERROR(checker.EnsureLegal(scratch));
    LDAPBOUND_RETURN_IF_ERROR(LoadLdif(text, directory_.get()).status());
    PublishSnapshotLocked();
    // Bulk imports bypass the changelog, so they must reach the WAL as a
    // snapshot or the durable state would silently diverge.
    if (wal_ != nullptr) {
      Status status = CompactLocked();
      if (!status.ok()) {
        stats_->wal_resync_needed.store(true, std::memory_order_release);
        health_->ReportWalFailure(status);
        return status;
      }
    }
    return created;
  }();
  if (imported.ok()) {
    ++stats_->imports;
    op.ok.Increment();
    tracker.Ok();
  } else {
    ++stats_->rejected;
    op.rejected.Increment();
    tracker.Rejected(imported.status().message());
  }
  return imported;
}

std::string DirectoryServer::ExportLdif() const {
  return WriteLdif(*directory_);
}

bool DirectoryServer::IsLegal() const {
  LegalityChecker checker(*schema_, check_options_);
  return checker.CheckLegal(*directory_);
}

Status DirectoryServer::EnableWal(const std::string& dir,
                                  const WalOptions& options) {
  std::lock_guard<std::mutex> lock(*write_mu_);
  if (wal_ != nullptr) {
    return Status::FailedPrecondition("WAL already enabled");
  }
  LDAPBOUND_RETURN_IF_ERROR(CheckWritable());
  LDAPBOUND_ASSIGN_OR_RETURN(WalDirListing listing, ListWalDir(dir));
  if (!listing.segments.empty() || listing.snapshot.has_value()) {
    return Status::FailedPrecondition(
        "WAL directory '" + dir +
        "' already contains a log; restart it via DirectoryServer::Recover");
  }
  // The schema is part of the durable state: Recover() must be able to
  // rebuild the server from the directory alone. It goes down before the
  // first segment so no crash window leaves a log without its schema.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("create WAL directory '" + dir +
                            "': " + ec.message());
  }
  LDAPBOUND_RETURN_IF_ERROR(
      AtomicWriteFile(dir + "/" + WriteAheadLog::kSchemaFileName,
                      FormatDirectorySchema(*schema_)));
  LDAPBOUND_ASSIGN_OR_RETURN(std::unique_ptr<WriteAheadLog> wal,
                             WriteAheadLog::Open(dir, options, /*next_seq=*/1));
  wal_ = std::move(wal);
  if (options.group_commit_max_batch > 1) {
    group_commit_ = std::make_unique<GroupCommitQueue>(
        wal_.get(), options.group_commit_max_batch,
        options.group_commit_hold_us);
  }
  // Pre-existing entries (e.g. a bulk-loaded seed) predate the log; write
  // them down as the initial snapshot.
  if (directory_->NumEntries() > 0) {
    Status status = CompactLocked();
    if (!status.ok()) {
      group_commit_ = nullptr;
      wal_ = nullptr;
      return status;
    }
  }
  return Status::OK();
}

Status DirectoryServer::Compact() {
  std::lock_guard<std::mutex> lock(*write_mu_);
  return CompactLocked();
}

Status DirectoryServer::CompactLocked() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("WAL not enabled");
  }
  LDAPBOUND_RETURN_IF_ERROR(CheckWritable());
  // The snapshot must cover every queued commit and no frame may land
  // after it with a sequence the snapshot already contains — otherwise
  // recovery would apply that commit twice. The write mutex is held, so
  // nothing new can enqueue behind the drain.
  if (group_commit_ != nullptr) group_commit_->Drain();
  return wal_->Compact(ExportLdif());
}

Result<DirectoryServer> DirectoryServer::Recover(const std::string& dir,
                                                 const WalOptions& options,
                                                 WalRecoveryReport* report) {
  LDAPBOUND_ASSIGN_OR_RETURN(WalDirListing listing, ListWalDir(dir));
  if (listing.schema_text.empty()) {
    return Status::NotFound("WAL directory '" + dir + "' has no " +
                            WriteAheadLog::kSchemaFileName +
                            " — nothing to recover");
  }
  LDAPBOUND_ASSIGN_OR_RETURN(DirectoryServer server,
                             Create(listing.schema_text));

  WalRecoveryReport local_report;
  if (report == nullptr) report = &local_report;
  *report = WalRecoveryReport{};

  uint64_t after_seq = 0;
  if (listing.snapshot.has_value()) {
    std::ifstream in(listing.snapshot->first, std::ios::binary);
    if (!in) {
      return Status::NotFound("cannot open snapshot '" +
                              listing.snapshot->first + "'");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto loaded = server.ImportLdif(buffer.str());
    if (!loaded.ok()) {
      return Status(loaded.status().code(),
                    "snapshot '" + listing.snapshot->first +
                        "' does not load: " + loaded.status().message());
    }
    after_seq = listing.snapshot->second;
    report->snapshot_seq = after_seq;
    report->snapshot_entries = *loaded;
  }

  Status replayed = ReplayWal(
      listing, after_seq,
      [&server](uint64_t seq, std::string_view payload) -> Status {
        auto applied = ApplyChangeLdif(payload, &server);
        if (!applied.ok()) {
          return Status(applied.status().code(),
                        "WAL frame seq " + std::to_string(seq) +
                            " does not replay: " + applied.status().message());
        }
        return Status::OK();
      },
      report);
  LDAPBOUND_RETURN_IF_ERROR(replayed);

  // The log only ever recorded committed-and-checked mutations, so the
  // replayed instance must be legal; anything else means the directory
  // was tampered with (or a bug) — refuse it.
  if (!server.IsLegal()) {
    return Status::Illegal(
        "recovered directory is not a legal instance of its schema "
        "(replayed " + std::to_string(report->frames_replayed) +
        " frames up to seq " + std::to_string(report->last_seq) + ")");
  }

  LDAPBOUND_ASSIGN_OR_RETURN(
      server.wal_,
      WriteAheadLog::Open(dir, options, report->last_seq + 1));
  if (options.group_commit_max_batch > 1) {
    server.group_commit_ = std::make_unique<GroupCommitQueue>(
        server.wal_.get(), options.group_commit_max_batch,
        options.group_commit_hold_us);
  }
  // Recovery work is not traffic; start the counters clean.
  server.stats_ = std::make_unique<StatCounters>();
  return server;
}

void DirectoryServer::EnableResilience(const ResilienceOptions& options) {
  std::lock_guard<std::mutex> lock(*write_mu_);
  admission_ = std::make_unique<AdmissionController>(options.admission,
                                                     group_commit_.get());
  if (options.auto_recover) {
    health_->StartProbe([this] { return DrainAndResync(); },
                        options.recovery_backoff);
  }
}

Status DirectoryServer::DrainAndResync() {
  std::lock_guard<std::mutex> lock(*write_mu_);
  // With the write mutex held no new commit can enter; draining lets
  // every already-queued commit fail out through the poisoned queue, so
  // nothing is in flight when the log is re-based.
  if (group_commit_ != nullptr) group_commit_->Drain();
  health_->EnterRecovering();
  if (wal_ != nullptr &&
      stats_->wal_resync_needed.load(std::memory_order_acquire)) {
    // Re-base the log on the in-memory state: it is the acknowledged
    // history plus possibly a suffix of unacknowledged-but-applied
    // commits, which is exactly what the server must continue from (MVCC
    // readers have seen them).
    LDAPBOUND_RETURN_IF_ERROR(wal_->ResyncFromSnapshot(ExportLdif()));
    if (group_commit_ != nullptr) group_commit_->ResetAfterResync();
    stats_->wal_resync_needed.store(false, std::memory_order_release);
  }
  return Status::OK();
}

Status DirectoryServer::TryRecoverNow() {
  return health_->AttemptRecovery([this] { return DrainAndResync(); });
}

DirectoryServer::Stats DirectoryServer::stats() const {
  Stats snapshot;
  snapshot.adds = stats_->adds.load(std::memory_order_relaxed);
  snapshot.deletes = stats_->deletes.load(std::memory_order_relaxed);
  snapshot.modifies = stats_->modifies.load(std::memory_order_relaxed);
  snapshot.searches = stats_->searches.load(std::memory_order_relaxed);
  snapshot.imports = stats_->imports.load(std::memory_order_relaxed);
  snapshot.rejected = stats_->rejected.load(std::memory_order_relaxed);
  return snapshot;
}

}  // namespace ldapbound
