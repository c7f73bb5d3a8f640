#ifndef LDAPBOUND_QUERY_EVALUATOR_H_
#define LDAPBOUND_QUERY_EVALUATOR_H_

#include <cstdint>
#include <unordered_map>

#include "model/directory.h"
#include "model/entry_set.h"
#include "query/explain.h"
#include "query/query.h"
#include "query/value_index.h"
#include "util/metrics.h"

namespace ldapbound {

/// Counters exposed for testing the O(|Q|·|D|) evaluation bound.
struct EvaluatorStats {
  uint64_t nodes_evaluated = 0;   ///< query AST nodes processed
  uint64_t entries_scanned = 0;   ///< per-entry work units performed
  uint64_t cache_hits = 0;        ///< atomic selections answered from the
                                  ///< shared class-selection cache
  uint64_t short_circuits = 0;    ///< lazy-emptiness early exits: an
                                  ///< IsEmpty node that concluded at a
                                  ///< witness (or an empty operand)
                                  ///< without materializing its result

  EvaluatorStats& operator+=(const EvaluatorStats& other) {
    nodes_evaluated += other.nodes_evaluated;
    entries_scanned += other.entries_scanned;
    cache_hits += other.cache_hits;
    short_circuits += other.short_circuits;
    return *this;
  }
};

/// Process-wide mirrors of the evaluator counters (ldapbound_query_*
/// families, util/metrics.h). The evaluator itself stays metrics-free —
/// its counters are plain locals on purpose (one instance per worker, no
/// atomics in the scan loops); owners that finish a query batch call
/// AddEvaluatorStatsToMetrics once to publish the aggregate.
struct QueryMetrics {
  Counter& nodes_evaluated;
  Counter& entries_scanned;
  Counter& cache_hits;
  Counter& short_circuits;
  Histogram& nodes_per_query;  ///< |Q| of each published batch
  Histogram& scan_length;      ///< entries scanned by each published batch
};
QueryMetrics& GetQueryMetrics();

/// Publishes `stats` (adds to the counters, observes the histograms).
void AddEvaluatorStatsToMetrics(const EvaluatorStats& stats);

/// Evaluates hierarchical selection queries over a Directory.
///
/// Every AST node is processed with O(|D|) work (one pass; no pairwise
/// joins), realizing the evaluation bound of Jagadish et al. that Section
/// 3.2 builds on:
///   - atomic select: one scan applying the matcher;
///   - the four hierarchy axes: the parent-link algorithms of
///     query/axes.h, shared with SnapshotEvaluator;
///   - diff / union / intersect: bitmap algebra.
///
/// An optional Δ-set enables the scoped predicates of Figure 5: atomic
/// selections can be restricted to Δ, to its complement, or suppressed.
///
/// The evaluator holds mutable counters (stats_), so one instance must not
/// be shared across threads; the parallel legality engine creates one
/// evaluator per worker and merges the stats afterwards. A read-only
/// class-selection cache MAY be shared across evaluators (set_class_cache).
class QueryEvaluator {
 public:
  /// `delta`, if given, must remain valid while the evaluator is used and
  /// must have capacity >= directory.IdCapacity(). `index`, if given and
  /// fresh, answers unscoped class/value selections in O(|result|); a
  /// stale or absent index falls back to the scan.
  explicit QueryEvaluator(const Directory& directory,
                          const EntrySet* delta = nullptr,
                          const ValueIndex* index = nullptr)
      : directory_(directory), delta_(delta), index_(index) {}

  /// Optional read-only cache of unscoped `(objectClass=c)` selection
  /// results, keyed by class id. Consulted (before the value index) for
  /// kAll-scoped ClassMatcher selections only; missing classes fall back
  /// to the normal path. The cache must stay valid and unmodified while
  /// this evaluator runs; it may be shared by concurrent evaluators.
  void set_class_cache(const std::unordered_map<ClassId, EntrySet>* cache) {
    class_cache_ = cache;
  }

  /// Attaches an EXPLAIN profile: each subsequent top-level Evaluate or
  /// IsEmpty call rebuilds `*profile` with the per-node plan tree (input /
  /// output cardinalities, strategy chosen, short-circuit points, per-node
  /// latency). Pass nullptr to detach. The profile object must outlive the
  /// attached evaluations. Profiling changes no results and, when detached
  /// (the default), costs a handful of never-taken branches per AST node —
  /// never per-entry work.
  void set_profile(QueryProfile* profile) { profile_ = profile; }

  /// Evaluates `query`; the result holds alive entry ids.
  EntrySet Evaluate(const Query& query);

  /// True iff the query result is empty. Lazy: the top-level node stops at
  /// the first surviving id instead of materializing its result bitmap —
  /// a union short-circuits at the first non-empty operand, a difference
  /// becomes a word-wise subset test, a hierarchical selection stops at
  /// the first member with a qualifying related entry. Operand subtrees
  /// below the top-level node still evaluate fully.
  bool IsEmpty(const Query& query);

  const EvaluatorStats& stats() const { return stats_; }

 private:
  EntrySet EvaluateImpl(const Query& query);
  bool IsEmptyImpl(const Query& query);
  EntrySet EvaluateProfiled(const Query& query);
  bool IsEmptyProfiled(const Query& query);
  EntrySet EvaluateSelect(const Query& query);
  EntrySet EvaluateHier(const Query& query);
  bool SelectIsEmpty(const Query& query);
  bool HierIsEmpty(const Query& query);

  ExplainNode MakeNodeHeader(const Query& query, bool lazy) const;

  /// Records the strategy the CURRENT plan node chose. Bodies call this at
  /// decision points that run after their operand subtrees finished (each
  /// child frame consumes-and-clears the slot), so the value the frame
  /// reads on finish is its own. No-op when no profile is attached.
  void RecordStrategy(const char* strategy) {
    if (profile_ != nullptr) node_strategy_ = strategy;
  }

  const Directory& directory_;
  const EntrySet* delta_;
  const ValueIndex* index_;
  const std::unordered_map<ClassId, EntrySet>* class_cache_ = nullptr;
  EvaluatorStats stats_;

  // EXPLAIN state (untouched unless a profile is attached).
  QueryProfile* profile_ = nullptr;
  ExplainNode* profile_parent_ = nullptr;
  const char* node_strategy_ = nullptr;
  uint64_t profile_children_scanned_ = 0;
  uint64_t profile_children_short_circuits_ = 0;
};

}  // namespace ldapbound

#endif  // LDAPBOUND_QUERY_EVALUATOR_H_
