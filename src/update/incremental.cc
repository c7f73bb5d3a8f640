#include "update/incremental.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/translation.h"
#include "query/evaluator.h"

namespace ldapbound {

namespace {

bool ReportRelationship(std::vector<Violation>* out, bool* ok,
                        const StructuralRelationship& rel, EntryId entry) {
  *ok = false;
  if (out == nullptr) return false;
  Violation v;
  v.kind = rel.forbidden ? ViolationKind::kForbiddenRelationship
                         : ViolationKind::kRequiredRelationship;
  v.entry = entry;
  v.relationship = rel;
  out->push_back(v);
  return true;
}

}  // namespace

bool IncrementalValidator::IsIncrementallyTestable(
    const StructuralRelationship& rel, bool insertion) {
  if (insertion) return true;  // every Figure 5 insertion row is "yes"
  if (rel.forbidden) return true;           // deletions cannot create pairs
  return rel.axis == Axis::kParent || rel.axis == Axis::kAncestor;
}

bool IncrementalValidator::CheckAfterInsert(const Directory& directory,
                                            const EntrySet& delta,
                                            std::vector<Violation>* out) const {
  // Content schema: insertion of Δ preserves content legality iff Δ itself
  // is content-legal (§4.2) — old entries are untouched.
  bool ok = true;
  bool content_ok = true;
  delta.ForEach([&](EntryId id) {
    if (!directory.IsAlive(id)) return;
    if (!checker_.CheckEntryContent(directory, id, out)) content_ok = false;
  });
  if (!content_ok) {
    ok = false;
    if (out == nullptr) return false;
  }
  bool structure_ok =
      options_.delta_driven_insert
          ? CheckStructureAfterInsertDeltaDriven(directory, delta, out)
          : CheckStructureAfterInsert(directory, delta, out);
  if (!structure_ok) {
    ok = false;
    if (out == nullptr) return false;
  }
  if (!CheckDeltaKeys(directory, delta, out)) {
    ok = false;
    if (out == nullptr) return false;
  }
  return ok;
}

bool IncrementalValidator::CheckDeltaKeys(const Directory& directory,
                                          const EntrySet& delta,
                                          std::vector<Violation>* out) const {
  const std::vector<AttributeId>& keys = schema_.key_attributes();
  if (keys.empty()) return true;
  bool ok = true;

  // D outside Δ satisfied the keys, so every new duplicate involves a Δ
  // value: collect Δ's key values (flagging duplicates within Δ), then
  // find the old entries holding any of them. Each is a duplicate. With
  // snapshots on, the writer's value postings answer that with one probe
  // per Δ key value — O(|Δ|) per key attribute, independent of |D|.
  // Without postings it takes one scan of the old entries.
  std::vector<EntryId> holders;
  for (AttributeId attr : keys) {
    std::unordered_map<Value, EntryId, ValueHash> fresh;
    bool stop = false;
    delta.ForEach([&](EntryId id) {
      if (stop || !directory.IsAlive(id)) return;
      for (const Value& v : directory.entry(id).GetValues(attr)) {
        auto [it, inserted] = fresh.emplace(v, id);
        if (!inserted) {
          Violation violation;
          violation.kind = ViolationKind::kDuplicateKeyValue;
          violation.entry = id;
          violation.attr = attr;
          ok = false;
          if (out == nullptr) {
            stop = true;
            return;
          }
          out->push_back(violation);
        }
      }
    });
    if (stop) return false;
    if (fresh.empty()) continue;

    // Old holders in ascending id order — the order a scan of D meets
    // them, which keeps the violation list identical on both paths.
    holders.clear();
    if (directory.snapshots_enabled()) {
      for (const auto& [value, delta_holder] : fresh) {
        const std::vector<EntryId>* posting =
            directory.ValuePosting(attr, value);
        if (posting == nullptr) continue;
        for (EntryId holder : *posting) {
          if (!delta.Contains(holder)) holders.push_back(holder);
        }
      }
      std::sort(holders.begin(), holders.end());
      holders.erase(std::unique(holders.begin(), holders.end()),
                    holders.end());
    } else {
      directory.ForEachAlive([&](const Entry& e) {
        if (delta.Contains(e.id())) return;
        for (const Value& v : e.GetValues(attr)) {
          if (fresh.count(v) != 0) {
            holders.push_back(e.id());
            return;
          }
        }
      });
    }
    for (EntryId holder : holders) {
      for (const Value& v : directory.entry(holder).GetValues(attr)) {
        auto it = fresh.find(v);
        if (it == fresh.end()) continue;
        ok = false;
        if (out == nullptr) return false;
        Violation violation;
        violation.kind = ViolationKind::kDuplicateKeyValue;
        violation.entry = it->second;
        violation.attr = attr;
        out->push_back(violation);
      }
    }
  }
  return ok;
}

namespace {

// Does `source_entry` have an axis-related entry of class `target`?
// Child/parent are O(fanout)/O(1); descendant is an early-exit DFS;
// ancestor walks the root path.
bool SatisfiesRequired(const Directory& directory, EntryId source_entry,
                       const StructuralRelationship& rel) {
  const Entry& e = directory.entry(source_entry);
  switch (rel.axis) {
    case Axis::kChild:
      for (EntryId c : e.children()) {
        if (directory.entry(c).HasClass(rel.target)) return true;
      }
      return false;
    case Axis::kParent:
      return e.parent() != kInvalidEntryId &&
             directory.entry(e.parent()).HasClass(rel.target);
    case Axis::kDescendant: {
      std::vector<EntryId> stack(e.children().begin(), e.children().end());
      while (!stack.empty()) {
        EntryId cur = stack.back();
        stack.pop_back();
        if (directory.entry(cur).HasClass(rel.target)) return true;
        const auto& kids = directory.entry(cur).children();
        stack.insert(stack.end(), kids.begin(), kids.end());
      }
      return false;
    }
    case Axis::kAncestor:
      for (EntryId a = e.parent(); a != kInvalidEntryId;
           a = directory.entry(a).parent()) {
        if (directory.entry(a).HasClass(rel.target)) return true;
      }
      return false;
  }
  return false;
}

}  // namespace

bool IncrementalValidator::CheckAfterReclassify(
    const Directory& directory, EntryId id, const std::vector<ClassId>& added,
    const std::vector<ClassId>& removed, std::vector<Violation>* out) const {
  const StructureSchema& structure = schema_.structure();
  const Entry& entry = directory.entry(id);
  bool ok = true;

  auto in = [](const std::vector<ClassId>& set, ClassId c) {
    return std::find(set.begin(), set.end(), c) != set.end();
  };

  // Content: only this entry's class set changed.
  if (!checker_.CheckEntryContent(directory, id, out)) {
    ok = false;
    if (out == nullptr) return false;
  }

  // Required classes Cr: a removed class may have lost its last member.
  for (ClassId cls : structure.required_classes()) {
    if (!in(removed, cls)) continue;
    if (directory.CountWithClass(cls) == 0) {
      ok = false;
      if (out == nullptr) return false;
      Violation v;
      v.kind = ViolationKind::kMissingRequiredClass;
      v.cls = cls;
      out->push_back(v);
    }
  }

  for (const StructuralRelationship& rel : structure.required()) {
    // The entry itself, for requirements its new classes impose.
    if (in(added, rel.source) && entry.HasClass(rel.source) &&
        !SatisfiesRequired(directory, id, rel)) {
      if (!ReportRelationship(out, &ok, rel, id)) return false;
    }
    // Entries that may have relied on this entry as their target.
    if (!in(removed, rel.target)) continue;
    auto recheck = [&](EntryId candidate) -> bool {
      if (!directory.entry(candidate).HasClass(rel.source)) return true;
      if (SatisfiesRequired(directory, candidate, rel)) return true;
      return ReportRelationship(out, &ok, rel, candidate);
    };
    switch (rel.axis) {
      case Axis::kChild: {
        EntryId p = entry.parent();
        if (p != kInvalidEntryId && !recheck(p)) return false;
        break;
      }
      case Axis::kDescendant:
        for (EntryId a = entry.parent(); a != kInvalidEntryId;
             a = directory.entry(a).parent()) {
          if (!recheck(a)) return false;
        }
        break;
      case Axis::kParent:
        for (EntryId c : entry.children()) {
          if (!recheck(c)) return false;
        }
        break;
      case Axis::kAncestor:
        for (EntryId d : directory.SubtreeEntries(id)) {
          if (d != id && !recheck(d)) return false;
        }
        break;
    }
  }

  for (const StructuralRelationship& rel : structure.forbidden()) {
    // Upper side: the entry's new classes forbid certain relatives below.
    if (in(added, rel.source) && entry.HasClass(rel.source)) {
      if (rel.axis == Axis::kChild) {
        for (EntryId c : entry.children()) {
          if (directory.entry(c).HasClass(rel.target)) {
            if (!ReportRelationship(out, &ok, rel, id)) return false;
            break;
          }
        }
      } else {
        for (EntryId d : directory.SubtreeEntries(id)) {
          if (d != id && directory.entry(d).HasClass(rel.target)) {
            if (!ReportRelationship(out, &ok, rel, id)) return false;
            break;
          }
        }
      }
    }
    // Lower side: the entry's new classes are forbidden below certain
    // ancestors.
    if (in(added, rel.target) && entry.HasClass(rel.target)) {
      if (rel.axis == Axis::kChild) {
        EntryId p = entry.parent();
        if (p != kInvalidEntryId &&
            directory.entry(p).HasClass(rel.source)) {
          if (!ReportRelationship(out, &ok, rel, p)) return false;
        }
      } else {
        for (EntryId a = entry.parent(); a != kInvalidEntryId;
             a = directory.entry(a).parent()) {
          if (directory.entry(a).HasClass(rel.source)) {
            if (!ReportRelationship(out, &ok, rel, a)) return false;
          }
        }
      }
    }
  }
  return ok;
}

bool IncrementalValidator::CheckAfterMove(const Directory& directory,
                                          EntryId root, EntryId old_parent,
                                          std::vector<Violation>* out) const {
  const StructureSchema& structure = schema_.structure();
  bool ok = true;
  std::vector<EntryId> subtree = directory.SubtreeEntries(root);

  for (const StructuralRelationship& rel : structure.required()) {
    switch (rel.axis) {
      case Axis::kChild: {
        // Only the old parent lost a child.
        if (old_parent != kInvalidEntryId &&
            directory.entry(old_parent).HasClass(rel.source) &&
            !SatisfiesRequired(directory, old_parent, rel)) {
          if (!ReportRelationship(out, &ok, rel, old_parent)) return false;
        }
        break;
      }
      case Axis::kDescendant: {
        // The old ancestor chain lost the subtree's entries.
        for (EntryId a = old_parent; a != kInvalidEntryId;
             a = directory.entry(a).parent()) {
          if (directory.entry(a).HasClass(rel.source) &&
              !SatisfiesRequired(directory, a, rel)) {
            if (!ReportRelationship(out, &ok, rel, a)) return false;
          }
        }
        break;
      }
      case Axis::kParent: {
        // Only the subtree root's parent changed.
        if (directory.entry(root).HasClass(rel.source) &&
            !SatisfiesRequired(directory, root, rel)) {
          if (!ReportRelationship(out, &ok, rel, root)) return false;
        }
        break;
      }
      case Axis::kAncestor: {
        // Every subtree entry's ancestor set above `root` changed.
        for (EntryId id : subtree) {
          if (directory.entry(id).HasClass(rel.source) &&
              !SatisfiesRequired(directory, id, rel)) {
            if (!ReportRelationship(out, &ok, rel, id)) return false;
          }
        }
        break;
      }
    }
  }

  // Forbidden: new (upper, lower) pairs pair the new ancestors with the
  // subtree's entries.
  for (const StructuralRelationship& rel : structure.forbidden()) {
    if (rel.axis == Axis::kChild) {
      EntryId p = directory.entry(root).parent();
      if (p != kInvalidEntryId && directory.entry(p).HasClass(rel.source) &&
          directory.entry(root).HasClass(rel.target)) {
        if (!ReportRelationship(out, &ok, rel, p)) return false;
      }
      continue;
    }
    // Descendant axis: does any subtree entry carry the target class, and
    // any new ancestor the source class?
    bool subtree_has_target = false;
    for (EntryId id : subtree) {
      if (directory.entry(id).HasClass(rel.target)) {
        subtree_has_target = true;
        break;
      }
    }
    if (!subtree_has_target) continue;
    for (EntryId a = directory.entry(root).parent(); a != kInvalidEntryId;
         a = directory.entry(a).parent()) {
      if (directory.entry(a).HasClass(rel.source)) {
        // Precise blame: the ancestor must dominate a target-class entry —
        // it does (subtree_has_target and a is above the whole subtree).
        if (!ReportRelationship(out, &ok, rel, a)) return false;
      }
    }
  }
  return ok;
}

bool IncrementalValidator::CheckStructureAfterInsertDeltaDriven(
    const Directory& directory, const EntrySet& delta,
    std::vector<Violation>* out) const {
  const StructureSchema& structure = schema_.structure();
  bool ok = true;

  // Early-exit search for a target-class entry in the subtree below `from`
  // (the subtree of a new entry consists of new entries only, so this is
  // bounded by |Δ|).
  auto has_descendant = [&](EntryId from, ClassId target) {
    std::vector<EntryId> stack(directory.entry(from).children().begin(),
                               directory.entry(from).children().end());
    while (!stack.empty()) {
      EntryId cur = stack.back();
      stack.pop_back();
      if (directory.entry(cur).HasClass(target)) return true;
      const auto& kids = directory.entry(cur).children();
      stack.insert(stack.end(), kids.begin(), kids.end());
    }
    return false;
  };
  auto has_ancestor = [&](EntryId from, ClassId target) {
    for (EntryId a = directory.entry(from).parent(); a != kInvalidEntryId;
         a = directory.entry(a).parent()) {
      if (directory.entry(a).HasClass(target)) return true;
    }
    return false;
  };

  bool stop = false;
  delta.ForEach([&](EntryId id) {
    if (stop || !directory.IsAlive(id)) return;
    const Entry& entry = directory.entry(id);

    // Required relationships: only new sources can violate.
    for (const StructuralRelationship& rel : structure.required()) {
      if (!entry.HasClass(rel.source)) continue;
      bool satisfied = false;
      switch (rel.axis) {
        case Axis::kChild:
          for (EntryId c : entry.children()) {
            if (directory.entry(c).HasClass(rel.target)) {
              satisfied = true;
              break;
            }
          }
          break;
        case Axis::kDescendant:
          satisfied = has_descendant(id, rel.target);
          break;
        case Axis::kParent:
          satisfied = entry.parent() != kInvalidEntryId &&
                      directory.entry(entry.parent()).HasClass(rel.target);
          break;
        case Axis::kAncestor:
          satisfied = has_ancestor(id, rel.target);
          break;
      }
      if (!satisfied) {
        if (!ReportRelationship(out, &ok, rel, id)) {
          stop = true;
          return;
        }
      }
    }

    // Forbidden relationships: every new pair has its lower entry in Δ, so
    // check each new entry's parent (child axis) and ancestors (descendant
    // axis) — they may be old or new.
    for (const StructuralRelationship& rel : structure.forbidden()) {
      if (!entry.HasClass(rel.target)) continue;
      if (rel.axis == Axis::kChild) {
        EntryId p = entry.parent();
        if (p != kInvalidEntryId && directory.entry(p).HasClass(rel.source)) {
          if (!ReportRelationship(out, &ok, rel, p)) {
            stop = true;
            return;
          }
        }
      } else {
        for (EntryId a = entry.parent(); a != kInvalidEntryId;
             a = directory.entry(a).parent()) {
          if (directory.entry(a).HasClass(rel.source)) {
            if (!ReportRelationship(out, &ok, rel, a)) {
              stop = true;
              return;
            }
          }
        }
      }
    }
  });
  return ok;
}

bool IncrementalValidator::CheckStructureAfterInsert(
    const Directory& directory, const EntrySet& delta,
    std::vector<Violation>* out) const {
  const StructureSchema& structure = schema_.structure();
  QueryEvaluator evaluator(directory, &delta);
  bool ok = true;

  // Required classes Cr cannot be violated by insertion (Figure 5 text).

  for (const StructuralRelationship& rel : structure.required()) {
    // Only new sources can violate; their child/descendant relatives are
    // necessarily new, while parent/ancestor relatives may be old.
    Scope target_scope =
        (rel.axis == Axis::kChild || rel.axis == Axis::kDescendant)
            ? Scope::kDeltaOnly
            : Scope::kAll;
    EntrySet offenders =
        evaluator.Evaluate(ViolationQuery(rel, Scope::kDeltaOnly,
                                          target_scope));
    bool stop = false;
    offenders.ForEach([&](EntryId id) {
      if (stop) return;
      if (!ReportRelationship(out, &ok, rel, id)) stop = true;
    });
    if (stop) return false;
  }

  for (const StructuralRelationship& rel : structure.forbidden()) {
    // Every new (upper, lower) pair has a new lower entry; the upper side
    // may be old or new.
    EntrySet offenders = evaluator.Evaluate(
        ViolationQuery(rel, Scope::kAll, Scope::kDeltaOnly));
    bool stop = false;
    offenders.ForEach([&](EntryId id) {
      if (stop) return;
      if (!ReportRelationship(out, &ok, rel, id)) stop = true;
    });
    if (stop) return false;
  }
  return ok;
}

bool IncrementalValidator::CheckBeforeDelete(const Directory& directory,
                                             EntryId delta_root,
                                             const EntrySet& delta,
                                             std::vector<Violation>* out) const {
  return CheckBeforeDeleteBatch(directory, {delta_root}, delta, out);
}

bool IncrementalValidator::CheckBeforeDeleteBatch(
    const Directory& directory, const std::vector<EntryId>& delta_roots,
    const EntrySet& delta, std::vector<Violation>* out) const {
  bool ok = true;

  // Required classes Cr: testable via the maintained class counts — the
  // counting extension the paper sketches. A required class is violated iff
  // all its member entries are inside Δ.
  std::unordered_map<ClassId, size_t> delta_counts;
  delta.ForEach([&](EntryId id) {
    for (ClassId c : directory.entry(id).classes()) ++delta_counts[c];
  });
  for (ClassId cls : schema_.structure().required_classes()) {
    size_t total = directory.CountWithClass(cls);
    auto it = delta_counts.find(cls);
    size_t doomed = it == delta_counts.end() ? 0 : it->second;
    if (total > 0 && doomed >= total) {
      ok = false;
      if (out == nullptr) return false;
      Violation v;
      v.kind = ViolationKind::kMissingRequiredClass;
      v.cls = cls;
      out->push_back(v);
    }
  }

  if (!CheckStructureBeforeDelete(directory, delta_roots, delta, out)) {
    ok = false;
    if (out == nullptr) return false;
  }
  return ok;
}

bool IncrementalValidator::CheckStructureBeforeDelete(
    const Directory& directory, const std::vector<EntryId>& delta_roots,
    const EntrySet& delta, std::vector<Violation>* out) const {
  const StructureSchema& structure = schema_.structure();
  bool ok = true;

  // Forbidden and required-parent/ancestor relationships cannot be violated
  // by deletion (Figure 5's ∅ rows): survivors keep their ancestors, and no
  // new pairs appear. Only required child/descendant remain.

  if (!options_.ancestor_path_optimization) {
    // Paper-faithful: evaluate the Figure 4 query over D−Δ.
    QueryEvaluator evaluator(directory, &delta);
    for (const StructuralRelationship& rel : structure.required()) {
      if (rel.axis != Axis::kChild && rel.axis != Axis::kDescendant) continue;
      EntrySet offenders = evaluator.Evaluate(
          ViolationQuery(rel, Scope::kExcludeDelta, Scope::kExcludeDelta));
      bool stop = false;
      offenders.ForEach([&](EntryId id) {
        if (stop) return;
        if (!ReportRelationship(out, &ok, rel, id)) stop = true;
      });
      if (stop) return false;
    }
    return ok;
  }

  // Extension: since D is legal, the only entries that lose a child are
  // the doomed roots' parents, and the only entries that lose descendants
  // are the roots' surviving proper ancestors. Test just those — collected
  // once across the whole batch, so subtrees sharing ancestors (common
  // under a hot parent) are not re-tested per subtree.
  std::vector<EntryId> parents;
  std::vector<EntryId> ancestors;
  {
    std::unordered_set<EntryId> parent_seen;
    std::unordered_set<EntryId> anc_seen;
    for (EntryId root : delta_roots) {
      EntryId p = directory.entry(root).parent();
      if (p == kInvalidEntryId) continue;
      if (parent_seen.insert(p).second) parents.push_back(p);
      for (EntryId a = p; a != kInvalidEntryId;
           a = directory.entry(a).parent()) {
        // A chain already walked from here up stops the climb.
        if (!anc_seen.insert(a).second) break;
        ancestors.push_back(a);
      }
    }
  }

  // Surviving target-descendant search with early exit, skipping Δ. The
  // class test happens as each child is first seen — not after queueing a
  // whole child list — so a hit under a high-fanout parent returns before
  // scanning the remaining siblings.
  auto has_surviving_descendant = [&](EntryId from, ClassId target) {
    std::vector<EntryId> stack;
    stack.push_back(from);
    while (!stack.empty()) {
      EntryId cur = stack.back();
      stack.pop_back();
      for (EntryId c : directory.entry(cur).children()) {
        if (delta.Contains(c)) continue;
        if (directory.entry(c).HasClass(target)) return true;
        stack.push_back(c);
      }
    }
    return false;
  };

  for (const StructuralRelationship& rel : structure.required()) {
    if (rel.axis == Axis::kChild) {
      for (EntryId parent : parents) {
        if (!directory.entry(parent).HasClass(rel.source)) continue;
        bool satisfied = false;
        for (EntryId c : directory.entry(parent).children()) {
          if (delta.Contains(c)) continue;
          if (directory.entry(c).HasClass(rel.target)) {
            satisfied = true;
            break;
          }
        }
        if (!satisfied) {
          if (!ReportRelationship(out, &ok, rel, parent)) return false;
        }
      }
      continue;
    }
    if (rel.axis == Axis::kDescendant) {
      for (EntryId anc : ancestors) {
        if (!directory.entry(anc).HasClass(rel.source)) continue;
        if (!has_surviving_descendant(anc, rel.target)) {
          if (!ReportRelationship(out, &ok, rel, anc)) return false;
        }
      }
      continue;
    }
  }
  return ok;
}

}  // namespace ldapbound
