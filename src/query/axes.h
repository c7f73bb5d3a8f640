#ifndef LDAPBOUND_QUERY_AXES_H_
#define LDAPBOUND_QUERY_AXES_H_

#include <cstdint>
#include <vector>

#include "model/axis.h"
#include "model/entry_set.h"

namespace ldapbound {

/// The four hierarchy axes of Section 3.2, written once over parent links
/// and shared by QueryEvaluator (live Directory) and SnapshotEvaluator
/// (pinned snapshot). The result of ((ax) A B) is the set of A-members
/// with an ax-neighbor in B:
///   - child:      the parents of B-members, intersected with A;
///   - parent:     the A-members whose parent is in B;
///   - descendant: mark every proper ancestor of each B-member, stopping
///                 at the first one already marked, then intersect with A;
///   - ancestor:   a memoized walk up each A-member's parent chain.
/// Each entry is visited O(1) times per axis, so one hierarchy node costs
/// O(|A| + |B| + |D|) — the O(|D|) per query node behind Theorem 3.1's
/// O(|Q|·|D|) bound. `scanned` counts those visits.
///
/// `parent_of(id)` returns the parent of an alive entry (kInvalidEntryId
/// for a root); it is a template parameter, so the per-entry read is a
/// direct call. A and B hold alive ids below `capacity`, and A's capacity
/// is `capacity`.
namespace axes_internal {

/// Memo of "x or one of its ancestors is in B", filled by walking each
/// queried chain up to the first entry whose answer is already known.
/// Two bitsets (known, yes) keep it at the density of the operand sets.
template <typename ParentOf>
class AncestorMemo {
 public:
  AncestorMemo(const EntrySet& b, size_t capacity, ParentOf& parent_of,
               uint64_t& scanned)
      : b_(b),
        parent_of_(parent_of),
        scanned_(scanned),
        known_(capacity),
        yes_(capacity) {}

  /// True iff `id` has a proper ancestor in B.
  bool HasAncestorInB(EntryId id) {
    path_.clear();
    bool verdict = false;
    for (EntryId x = parent_of_(id); x != kInvalidEntryId; x = parent_of_(x)) {
      ++scanned_;
      if (known_.Contains(x)) {
        verdict = yes_.Contains(x);
        break;
      }
      path_.push_back(x);
      if (b_.Contains(x)) {
        verdict = true;
        break;
      }
    }
    for (EntryId x : path_) {
      known_.Insert(x);
      if (verdict) yes_.Insert(x);
    }
    return verdict;
  }

 private:
  const EntrySet& b_;
  ParentOf& parent_of_;
  uint64_t& scanned_;
  EntrySet known_;
  EntrySet yes_;
  std::vector<EntryId> path_;
};

}  // namespace axes_internal

/// The members of ((axis) A B).
template <typename ParentOf>
EntrySet EvaluateAxis(Axis axis, const EntrySet& a, const EntrySet& b,
                      size_t capacity, ParentOf parent_of,
                      uint64_t& scanned) {
  EntrySet out(capacity);
  switch (axis) {
    case Axis::kChild:
      b.ForEach([&](EntryId id) {
        ++scanned;
        out.Insert(parent_of(id));  // a root's kInvalidEntryId is ignored
      });
      out.IntersectWith(a);
      break;
    case Axis::kParent:
      a.ForEach([&](EntryId id) {
        ++scanned;
        if (b.Contains(parent_of(id))) out.Insert(id);
      });
      break;
    case Axis::kDescendant:
      b.ForEach([&](EntryId id) {
        ++scanned;
        for (EntryId p = parent_of(id); p != kInvalidEntryId &&
                                        !out.Contains(p);
             p = parent_of(p)) {
          ++scanned;
          out.Insert(p);
        }
      });
      out.IntersectWith(a);
      break;
    case Axis::kAncestor: {
      axes_internal::AncestorMemo<ParentOf> memo(b, capacity, parent_of,
                                                 scanned);
      a.ForEach([&](EntryId id) {
        if (memo.HasAncestorInB(id)) out.Insert(id);
      });
      break;
    }
  }
  return out;
}

/// Emptiness of ((axis) A B), stopping at the first witness instead of
/// materializing the result.
template <typename ParentOf>
bool AxisIsEmpty(Axis axis, const EntrySet& a, const EntrySet& b,
                 size_t capacity, ParentOf parent_of, uint64_t& scanned) {
  switch (axis) {
    case Axis::kChild:
      return b.ForEachWhile([&](EntryId id) {
        ++scanned;
        return !a.Contains(parent_of(id));
      });
    case Axis::kParent:
      return a.ForEachWhile([&](EntryId id) {
        ++scanned;
        return !b.Contains(parent_of(id));
      });
    case Axis::kDescendant: {
      // Every marked entry was already tested against A, and so were its
      // ancestors: a walk may stop at the first marked one.
      EntrySet marked(capacity);
      return b.ForEachWhile([&](EntryId id) {
        ++scanned;
        for (EntryId p = parent_of(id); p != kInvalidEntryId &&
                                        !marked.Contains(p);
             p = parent_of(p)) {
          ++scanned;
          if (a.Contains(p)) return false;
          marked.Insert(p);
        }
        return true;
      });
    }
    case Axis::kAncestor: {
      axes_internal::AncestorMemo<ParentOf> memo(b, capacity, parent_of,
                                                 scanned);
      return a.ForEachWhile(
          [&](EntryId id) { return !memo.HasAncestorInB(id); });
    }
  }
  return true;
}

}  // namespace ldapbound

#endif  // LDAPBOUND_QUERY_AXES_H_
