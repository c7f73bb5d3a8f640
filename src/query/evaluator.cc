#include "query/evaluator.h"

#include <chrono>
#include <vector>

#include "query/axes.h"

namespace ldapbound {

namespace {

uint64_t CountPlanNodes(const ExplainNode& node) {
  uint64_t n = 1;
  for (const ExplainNode& child : node.children) n += CountPlanNodes(child);
  return n;
}

/// Strategy reported when a node's body never picked one explicitly: the
/// set-operation nodes, whose work is bitmap algebra, and the hierarchy
/// nodes, whose axis has one algorithm (query/axes.h).
const char* DefaultStrategy(const Query& query) {
  switch (query.kind()) {
    case Query::Kind::kSelect:
      return "scan";
    case Query::Kind::kHier:
      return "parent-links";
    case Query::Kind::kDiff:
    case Query::Kind::kUnion:
    case Query::Kind::kIntersect:
      return "bitmap";
  }
  return "?";
}

/// The live directory's parent links, for the shared axis code.
auto ParentOf(const Directory& d) {
  return [dir = &d](EntryId id) { return dir->entry(id).parent(); };
}

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

QueryMetrics& GetQueryMetrics() {
  static QueryMetrics* metrics = new QueryMetrics{
      MetricRegistry::Default().GetCounter(
          "ldapbound_query_nodes_evaluated_total",
          "Query AST nodes processed by evaluators"),
      MetricRegistry::Default().GetCounter(
          "ldapbound_query_entries_scanned_total",
          "Per-entry work units performed by evaluators"),
      MetricRegistry::Default().GetCounter(
          "ldapbound_query_cache_hits_total",
          "Atomic selections answered from the shared class-selection "
          "cache"),
      MetricRegistry::Default().GetCounter(
          "ldapbound_query_short_circuits_total",
          "Lazy-emptiness early exits (IsEmpty concluded at a witness)"),
      MetricRegistry::Default().GetHistogram(
          "ldapbound_query_nodes_per_query",
          "AST nodes evaluated per published query batch"),
      MetricRegistry::Default().GetHistogram(
          "ldapbound_query_scan_length",
          "Entries scanned per published query batch"),
  };
  return *metrics;
}

void AddEvaluatorStatsToMetrics(const EvaluatorStats& stats) {
  QueryMetrics& metrics = GetQueryMetrics();
  metrics.nodes_evaluated.Increment(stats.nodes_evaluated);
  metrics.entries_scanned.Increment(stats.entries_scanned);
  metrics.cache_hits.Increment(stats.cache_hits);
  metrics.short_circuits.Increment(stats.short_circuits);
  metrics.nodes_per_query.Observe(stats.nodes_evaluated);
  metrics.scan_length.Observe(stats.entries_scanned);
}

EntrySet QueryEvaluator::Evaluate(const Query& query) {
  if (profile_ != nullptr) return EvaluateProfiled(query);
  return EvaluateImpl(query);
}

bool QueryEvaluator::IsEmpty(const Query& query) {
  if (profile_ != nullptr) return IsEmptyProfiled(query);
  return IsEmptyImpl(query);
}

ExplainNode QueryEvaluator::MakeNodeHeader(const Query& query,
                                           bool lazy) const {
  ExplainNode node;
  node.lazy = lazy;
  switch (query.kind()) {
    case Query::Kind::kSelect:
      node.op = "select";
      node.detail = query.ToString(directory_.vocab());
      switch (query.scope()) {
        case Scope::kAll:
          node.scope = "all";
          break;
        case Scope::kDeltaOnly:
          node.scope = "delta";
          break;
        case Scope::kExcludeDelta:
          node.scope = "exclude-delta";
          break;
        case Scope::kEmpty:
          node.scope = "empty";
          break;
      }
      break;
    case Query::Kind::kHier:
      node.op = std::string(AxisToWord(query.axis()));
      break;
    case Query::Kind::kDiff:
      node.op = "diff";
      break;
    case Query::Kind::kUnion:
      node.op = "union";
      break;
    case Query::Kind::kIntersect:
      node.op = "intersect";
      break;
  }
  return node;
}

// Both profiled wrappers share the same frame discipline: push this node as
// the current parent, zero the child accumulators, run the plain body (whose
// recursive Evaluate/IsEmpty calls re-enter the dispatcher and so build the
// child subtrees), then compute this node's OWN per-entry work as the
// inclusive counter delta minus what the children accumulated.
EntrySet QueryEvaluator::EvaluateProfiled(const Query& query) {
  ExplainNode node = MakeNodeHeader(query, /*lazy=*/false);
  ExplainNode* saved_parent = profile_parent_;
  const uint64_t saved_children_scanned = profile_children_scanned_;
  const uint64_t saved_children_sc = profile_children_short_circuits_;
  profile_parent_ = &node;
  profile_children_scanned_ = 0;
  profile_children_short_circuits_ = 0;
  node_strategy_ = nullptr;
  const uint64_t scanned_before = stats_.entries_scanned;
  const uint64_t sc_before = stats_.short_circuits;
  const auto start = std::chrono::steady_clock::now();

  EntrySet result = EvaluateImpl(query);

  node.latency_ns = ElapsedNs(start);
  const uint64_t inclusive_scanned = stats_.entries_scanned - scanned_before;
  const uint64_t inclusive_sc = stats_.short_circuits - sc_before;
  node.entries_scanned = inclusive_scanned - profile_children_scanned_;
  node.short_circuit = inclusive_sc > profile_children_short_circuits_;
  node.out_cardinality = result.Count();
  node.strategy = node_strategy_ != nullptr ? node_strategy_
                                            : DefaultStrategy(query);
  node_strategy_ = nullptr;  // consumed; the parent sets its own later
  node.input_cardinalities.reserve(node.children.size());
  for (const ExplainNode& child : node.children) {
    node.input_cardinalities.push_back(child.out_cardinality);
  }
  profile_parent_ = saved_parent;
  profile_children_scanned_ = saved_children_scanned + inclusive_scanned;
  profile_children_short_circuits_ = saved_children_sc + inclusive_sc;
  if (saved_parent != nullptr) {
    saved_parent->children.push_back(std::move(node));
  } else {
    profile_->total_ns = node.latency_ns;
    profile_->total_scanned = inclusive_scanned;
    profile_->total_nodes = CountPlanNodes(node);
    profile_->root = std::move(node);
  }
  return result;
}

bool QueryEvaluator::IsEmptyProfiled(const Query& query) {
  ExplainNode node = MakeNodeHeader(query, /*lazy=*/true);
  ExplainNode* saved_parent = profile_parent_;
  const uint64_t saved_children_scanned = profile_children_scanned_;
  const uint64_t saved_children_sc = profile_children_short_circuits_;
  profile_parent_ = &node;
  profile_children_scanned_ = 0;
  profile_children_short_circuits_ = 0;
  node_strategy_ = nullptr;
  const uint64_t scanned_before = stats_.entries_scanned;
  const uint64_t sc_before = stats_.short_circuits;
  const auto start = std::chrono::steady_clock::now();

  const bool empty = IsEmptyImpl(query);

  node.latency_ns = ElapsedNs(start);
  const uint64_t inclusive_scanned = stats_.entries_scanned - scanned_before;
  const uint64_t inclusive_sc = stats_.short_circuits - sc_before;
  node.entries_scanned = inclusive_scanned - profile_children_scanned_;
  node.short_circuit = inclusive_sc > profile_children_short_circuits_;
  node.out_cardinality = 0;  // lazy nodes never materialize their result
  node.strategy = node_strategy_ != nullptr ? node_strategy_
                                            : DefaultStrategy(query);
  node_strategy_ = nullptr;
  node.input_cardinalities.reserve(node.children.size());
  for (const ExplainNode& child : node.children) {
    node.input_cardinalities.push_back(child.out_cardinality);
  }
  profile_parent_ = saved_parent;
  profile_children_scanned_ = saved_children_scanned + inclusive_scanned;
  profile_children_short_circuits_ = saved_children_sc + inclusive_sc;
  if (saved_parent != nullptr) {
    saved_parent->children.push_back(std::move(node));
  } else {
    profile_->total_ns = node.latency_ns;
    profile_->total_scanned = inclusive_scanned;
    profile_->total_nodes = CountPlanNodes(node);
    profile_->root = std::move(node);
  }
  return empty;
}

EntrySet QueryEvaluator::EvaluateImpl(const Query& query) {
  ++stats_.nodes_evaluated;
  switch (query.kind()) {
    case Query::Kind::kSelect:
      return EvaluateSelect(query);
    case Query::Kind::kHier:
      return EvaluateHier(query);
    case Query::Kind::kDiff: {
      EntrySet lhs = Evaluate(query.operands()[0]);
      EntrySet rhs = Evaluate(query.operands()[1]);
      lhs.SubtractFrom(rhs);
      return lhs;
    }
    case Query::Kind::kUnion: {
      EntrySet out(directory_.IdCapacity());
      for (const Query& op : query.operands()) {
        EntrySet part = Evaluate(op);
        out.UnionWith(part);
      }
      return out;
    }
    case Query::Kind::kIntersect: {
      if (query.operands().empty()) {
        // Empty intersection over subsets of D: all alive entries.
        return directory_.AliveSet();
      }
      EntrySet out = Evaluate(query.operands()[0]);
      for (size_t i = 1; i < query.operands().size(); ++i) {
        EntrySet part = Evaluate(query.operands()[i]);
        out.IntersectWith(part);
      }
      return out;
    }
  }
  return EntrySet(directory_.IdCapacity());
}

bool QueryEvaluator::IsEmptyImpl(const Query& query) {
  ++stats_.nodes_evaluated;
  switch (query.kind()) {
    case Query::Kind::kSelect:
      return SelectIsEmpty(query);
    case Query::Kind::kHier:
      return HierIsEmpty(query);
    case Query::Kind::kDiff: {
      // (? A B) is empty iff A ⊆ B; the subset test exits at the first
      // word holding a surviving id, and B is never evaluated when A is
      // already empty.
      EntrySet lhs = Evaluate(query.operands()[0]);
      if (lhs.Empty()) {
        ++stats_.short_circuits;  // B skipped entirely
        RecordStrategy("subset-test");
        return true;
      }
      EntrySet rhs = Evaluate(query.operands()[1]);
      bool empty = lhs.IsSubsetOf(rhs);
      if (!empty) ++stats_.short_circuits;  // exited at a surviving word
      RecordStrategy("subset-test");
      return empty;
    }
    case Query::Kind::kUnion: {
      for (const Query& op : query.operands()) {
        if (!IsEmpty(op)) {
          ++stats_.short_circuits;  // remaining operands skipped
          RecordStrategy("operand-sweep");
          return false;
        }
      }
      RecordStrategy("operand-sweep");
      return true;
    }
    case Query::Kind::kIntersect: {
      const std::vector<Query>& ops = query.operands();
      if (ops.empty()) return directory_.NumEntries() == 0;
      if (ops.size() == 1) {
        bool empty = IsEmpty(ops[0]);
        RecordStrategy("single-operand");
        return empty;
      }
      EntrySet acc = Evaluate(ops[0]);
      if (acc.Empty()) {
        ++stats_.short_circuits;  // remaining operands skipped
        RecordStrategy("incremental-intersect");
        return true;
      }
      for (size_t i = 1; i + 1 < ops.size(); ++i) {
        EntrySet part = Evaluate(ops[i]);
        acc.IntersectWith(part);
        if (acc.Empty()) {
          ++stats_.short_circuits;
          RecordStrategy("incremental-intersect");
          return true;
        }
      }
      EntrySet last = Evaluate(ops.back());
      bool empty = !acc.Intersects(last);
      if (!empty) ++stats_.short_circuits;  // exited at a common word
      RecordStrategy("incremental-intersect");
      return empty;
    }
  }
  return true;
}

EntrySet QueryEvaluator::EvaluateSelect(const Query& query) {
  EntrySet out(directory_.IdCapacity());
  const Scope scope = query.scope();
  if (scope == Scope::kEmpty) {
    RecordStrategy("empty-scope");
    return out;
  }
  const Matcher& matcher = *query.matcher();
  if (scope == Scope::kAll && class_cache_ != nullptr) {
    if (const auto* cm = dynamic_cast<const ClassMatcher*>(&matcher)) {
      auto it = class_cache_->find(cm->cls());
      if (it != class_cache_->end()) {
        ++stats_.cache_hits;
        RecordStrategy("class-cache");
        return it->second;
      }
    }
  }
  if (scope == Scope::kDeltaOnly) {
    // Δ-scoped selections touch only Δ — the ingredient that makes the
    // Figure 5 insertion checks cost O(|Δ|) rather than O(|D|).
    RecordStrategy("delta-scan");
    if (delta_ == nullptr) return out;
    delta_->ForEach([&](EntryId id) {
      if (!directory_.IsAlive(id)) return;
      ++stats_.entries_scanned;
      if (matcher.Matches(directory_.entry(id))) out.Insert(id);
    });
    return out;
  }
  if (scope == Scope::kAll && index_ != nullptr && index_->IsFresh() &&
      &index_->directory() == &directory_) {
    const std::vector<EntryId>* ids = nullptr;
    if (matcher.ProbeIndex(*index_, &ids)) {
      RecordStrategy("index");
      if (ids != nullptr) {
        for (EntryId id : *ids) {
          ++stats_.entries_scanned;
          out.Insert(id);
        }
      }
      return out;
    }
  }
  RecordStrategy("scan");
  directory_.ForEachAlive([&](const Entry& e) {
    ++stats_.entries_scanned;
    if (scope == Scope::kExcludeDelta && delta_ != nullptr &&
        delta_->Contains(e.id())) {
      return;
    }
    if (matcher.Matches(e)) out.Insert(e.id());
  });
  return out;
}

bool QueryEvaluator::SelectIsEmpty(const Query& query) {
  const Scope scope = query.scope();
  if (scope == Scope::kEmpty) {
    RecordStrategy("empty-scope");
    return true;
  }
  const Matcher& matcher = *query.matcher();
  if (scope == Scope::kAll && class_cache_ != nullptr) {
    if (const auto* cm = dynamic_cast<const ClassMatcher*>(&matcher)) {
      auto it = class_cache_->find(cm->cls());
      if (it != class_cache_->end()) {
        ++stats_.cache_hits;
        RecordStrategy("class-cache");
        return it->second.Empty();
      }
    }
  }
  if (scope == Scope::kDeltaOnly) {
    RecordStrategy("delta-scan");
    if (delta_ == nullptr) return true;
    bool empty = delta_->ForEachWhile([&](EntryId id) {
      if (!directory_.IsAlive(id)) return true;
      ++stats_.entries_scanned;
      return !matcher.Matches(directory_.entry(id));
    });
    if (!empty) ++stats_.short_circuits;  // stopped at the witness
    return empty;
  }
  if (scope == Scope::kAll && index_ != nullptr && index_->IsFresh() &&
      &index_->directory() == &directory_) {
    const std::vector<EntryId>* ids = nullptr;
    if (matcher.ProbeIndex(*index_, &ids)) {
      RecordStrategy("index");
      return ids == nullptr || ids->empty();
    }
  }
  RecordStrategy("scan");
  // Early-exit scan: stop at the first matching alive entry.
  const size_t cap = directory_.IdCapacity();
  for (size_t i = 0; i < cap; ++i) {
    EntryId id = static_cast<EntryId>(i);
    if (!directory_.IsAlive(id)) continue;
    ++stats_.entries_scanned;
    if (scope == Scope::kExcludeDelta && delta_ != nullptr &&
        delta_->Contains(id)) {
      continue;
    }
    if (matcher.Matches(directory_.entry(id))) {
      ++stats_.short_circuits;  // stopped at the witness
      return false;
    }
  }
  return true;
}

bool QueryEvaluator::HierIsEmpty(const Query& query) {
  EntrySet node_set = Evaluate(query.operands()[0]);
  if (node_set.Empty()) {
    RecordStrategy("empty-operand");
    return true;
  }
  EntrySet related = Evaluate(query.operands()[1]);
  if (related.Empty()) {
    RecordStrategy("empty-operand");
    return true;
  }
  // The axis stops at the first witness; a false verdict is by
  // construction a short-circuit.
  bool empty = AxisIsEmpty(query.axis(), node_set, related,
                           directory_.IdCapacity(), ParentOf(directory_),
                           stats_.entries_scanned);
  if (!empty) ++stats_.short_circuits;
  return empty;
}

EntrySet QueryEvaluator::EvaluateHier(const Query& query) {
  EntrySet node_set = Evaluate(query.operands()[0]);
  EntrySet related = Evaluate(query.operands()[1]);
  return EvaluateAxis(query.axis(), node_set, related,
                      directory_.IdCapacity(), ParentOf(directory_),
                      stats_.entries_scanned);
}

}  // namespace ldapbound
