#include "query/snapshot_evaluator.h"

#include <vector>

#include "query/axes.h"
#include "query/matcher.h"

namespace ldapbound {

EntrySet SnapshotEvaluator::Normalized(const EntrySet& set) const {
  EntrySet out = set;
  if (out.capacity() != snap_.id_capacity) out.Resize(snap_.id_capacity);
  return out;
}

EntrySet SnapshotEvaluator::AliveSet() const {
  return snap_.alive == nullptr ? EntrySet(snap_.id_capacity)
                                : Normalized(*snap_.alive);
}

Result<bool> SnapshotEvaluator::IsEmpty(const Query& query) {
  if (query.kind() != Query::Kind::kHier) {
    LDAPBOUND_ASSIGN_OR_RETURN(EntrySet members, Evaluate(query));
    return members.Empty();
  }
  ++stats_.nodes_evaluated;
  LDAPBOUND_ASSIGN_OR_RETURN(EntrySet node_set,
                             Evaluate(query.operands()[0]));
  LDAPBOUND_ASSIGN_OR_RETURN(EntrySet related,
                             Evaluate(query.operands()[1]));
  bool empty = AxisIsEmpty(query.axis(), node_set, related,
                           snap_.id_capacity, ParentOf(),
                           stats_.entries_scanned);
  if (!empty) ++stats_.short_circuits;
  return empty;
}

Result<EntrySet> SnapshotEvaluator::Evaluate(const Query& query) {
  ++stats_.nodes_evaluated;
  switch (query.kind()) {
    case Query::Kind::kSelect:
      return EvaluateSelect(query);
    case Query::Kind::kHier:
      return EvaluateHier(query);
    case Query::Kind::kDiff: {
      LDAPBOUND_ASSIGN_OR_RETURN(EntrySet left,
                                 Evaluate(query.operands()[0]));
      LDAPBOUND_ASSIGN_OR_RETURN(EntrySet right,
                                 Evaluate(query.operands()[1]));
      left.SubtractFrom(right);
      return left;
    }
    case Query::Kind::kUnion: {
      EntrySet out(snap_.id_capacity);
      for (const Query& op : query.operands()) {
        LDAPBOUND_ASSIGN_OR_RETURN(EntrySet members, Evaluate(op));
        out.UnionWith(members);
      }
      return out;
    }
    case Query::Kind::kIntersect: {
      EntrySet out;
      bool first = true;
      for (const Query& op : query.operands()) {
        LDAPBOUND_ASSIGN_OR_RETURN(EntrySet members, Evaluate(op));
        if (first) {
          out = std::move(members);
          first = false;
        } else {
          out.IntersectWith(members);
        }
      }
      if (first) return AliveSet();  // empty intersection over subsets of D
      return out;
    }
  }
  return Status::Internal("snapshot evaluator: unknown query kind");
}

Result<EntrySet> SnapshotEvaluator::EvaluateSelect(const Query& query) {
  if (query.scope() == Scope::kEmpty) return EntrySet(snap_.id_capacity);
  if (query.scope() != Scope::kAll) {
    return Status::Internal(
        "snapshot evaluator: delta-relative scopes need the live "
        "directory");
  }
  const Matcher* matcher = query.matcher().get();
  if (const auto* cls = dynamic_cast<const ClassMatcher*>(matcher)) {
    const EntrySet* posting = snap_.ClassSet(cls->cls());
    stats_.entries_scanned += posting == nullptr ? 0 : posting->Count();
    return posting == nullptr ? EntrySet(snap_.id_capacity)
                              : Normalized(*posting);
  }
  if (const auto* eq = dynamic_cast<const AttrEqualsMatcher*>(matcher)) {
    EntrySet out(snap_.id_capacity);
    const std::vector<EntryId>* posting =
        snap_.ValuePosting(eq->attr(), eq->value());
    if (posting != nullptr) {
      stats_.entries_scanned += posting->size();
      for (EntryId id : *posting) out.Insert(id);
    }
    return out;
  }
  if (dynamic_cast<const TrueMatcher*>(matcher) != nullptr) return AliveSet();
  return Status::Internal(
      "snapshot evaluator: matcher needs entry payloads (only class, "
      "attribute-equality and match-all selections are snapshot-backed)");
}

Result<EntrySet> SnapshotEvaluator::EvaluateHier(const Query& query) {
  LDAPBOUND_ASSIGN_OR_RETURN(EntrySet node_set,
                             Evaluate(query.operands()[0]));
  LDAPBOUND_ASSIGN_OR_RETURN(EntrySet related,
                             Evaluate(query.operands()[1]));
  return EvaluateAxis(query.axis(), node_set, related, snap_.id_capacity,
                      ParentOf(), stats_.entries_scanned);
}

}  // namespace ldapbound
