#ifndef LDAPBOUND_QUERY_SNAPSHOT_EVALUATOR_H_
#define LDAPBOUND_QUERY_SNAPSHOT_EVALUATOR_H_

#include "model/directory_snapshot.h"
#include "model/entry_set.h"
#include "query/evaluator.h"
#include "query/query.h"
#include "util/result.h"

namespace ldapbound {

/// Query evaluation against a pinned MVCC snapshot — the lock-free read
/// path. Answers the paper's Figure 4 structural queries (class
/// selections, the four hierarchy axes, set algebra) from snapshot state
/// alone: class/value postings for selections, the frozen parent view for
/// the axes (query/axes.h, the same code QueryEvaluator runs). It never
/// touches the live Directory or its Entry objects, so any number of
/// evaluators may run concurrently with the single writer.
///
/// Unlike QueryEvaluator this evaluator is partial: matchers that need
/// entry payloads (presence, negation, conjunction) and the Δ-relative
/// scopes return an error instead of a wrong answer. The Figure 4
/// legality queries use only class selections with Scope::kAll, so
/// CheckStructureSnapshot never hits the unsupported surface.
///
/// Axis semantics match QueryEvaluator::EvaluateHier: the result of
/// ((ax) A B) is the set of A-members that have an axis-neighbor in B —
/// e.g. axis d keeps the A-members with a proper descendant in B.
class SnapshotEvaluator {
 public:
  explicit SnapshotEvaluator(const DirectorySnapshot& snapshot)
      : snap_(snapshot) {}

  /// The members of `query` at the snapshot's version, as a set with
  /// capacity == snapshot.id_capacity.
  Result<EntrySet> Evaluate(const Query& query);

  /// Emptiness of `query`. A top-level hierarchy node stops at its first
  /// witness; other nodes evaluate fully.
  Result<bool> IsEmpty(const Query& query);

  const EvaluatorStats& stats() const { return stats_; }
  const DirectorySnapshot& snapshot() const { return snap_; }

 private:
  Result<EntrySet> EvaluateSelect(const Query& query);
  Result<EntrySet> EvaluateHier(const Query& query);
  /// Capacity-normalizes to the snapshot's id space: postings are built
  /// at power-of-two capacities, and word-wise set algebra needs equal
  /// word counts.
  EntrySet Normalized(const EntrySet& set) const;
  /// Every alive entry at the snapshot's version.
  EntrySet AliveSet() const;
  /// The snapshot's frozen parent links, for the shared axis code.
  auto ParentOf() const {
    return [snap = &snap_](EntryId id) { return snap->parent(id); };
  }

  const DirectorySnapshot& snap_;
  EvaluatorStats stats_;
};

}  // namespace ldapbound

#endif  // LDAPBOUND_QUERY_SNAPSHOT_EVALUATOR_H_
