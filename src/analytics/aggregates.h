#ifndef RAPIDA_ANALYTICS_AGGREGATES_H_
#define RAPIDA_ANALYTICS_AGGREGATES_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/dictionary.h"
#include "sparql/ast.h"
#include "util/statusor.h"

namespace rapida::analytics {

/// Incremental state for one aggregate function over one group.
///
/// The state is *algebraic* for COUNT/SUM/AVG/MIN/MAX without DISTINCT:
/// partial states can be merged, which is what the MapReduce engines'
/// map-side pre-aggregation (paper Alg. 3, `multiAggMap`) relies on.
/// DISTINCT aggregates keep the seen-set and are only supported by the
/// reference evaluator.
class Aggregator {
 public:
  /// `separator` is only meaningful for GROUP_CONCAT.
  Aggregator(sparql::AggFunc func, bool distinct,
             std::string separator = " ")
      : func_(func), distinct_(distinct),
        separator_(std::move(separator)) {}

  /// Adds one bound term (skips kInvalidTermId, matching SPARQL semantics
  /// where unbound values do not contribute).
  void AddTerm(rdf::TermId value, const rdf::Dictionary& dict);

  /// Adds one COUNT(*) row.
  void AddRow();

  /// Adds `w` COUNT(*) rows at once (the factorized engines' weighted
  /// aggregation: w = product of the other factors' row counts).
  void AddRowWeighted(uint64_t w) { count_ += w; }

  /// Exactly equivalent to `w` AddTerm calls for every order- and
  /// partition-insensitive aggregate (COUNT, MIN/MAX, SAMPLE,
  /// GROUP_CONCAT). SUM/AVG accumulate value*w, whose floating-point
  /// rounding can differ from w sequential adds — the planners keep
  /// SUM/AVG pipelines flat, so they never take this path.
  void AddTermWeighted(rdf::TermId value, const rdf::Dictionary& dict,
                       uint64_t w);

  /// Merges another partial state (same func; no DISTINCT).
  void Merge(const Aggregator& other, const rdf::Dictionary& dict);

  /// Final value as a canonical interned term (numbers via InternNumber,
  /// MIN/MAX as the winning term id). Empty-group results follow SPARQL:
  /// COUNT -> 0, SUM -> 0, AVG -> 0, MIN/MAX -> unbound.
  rdf::TermId Finalize(rdf::Dictionary* dict) const;

  /// Restores the freshly constructed state (same function, DISTINCT flag
  /// and separator) but keeps buffer capacity, so a reduce task reuses one
  /// aggregator row across its key groups.
  void Reset();

  /// Appends the partial state for shuffle
  /// ("count,sum,has,min,max,sample,concat-ids") to `out`.
  void AppendPartial(std::string* out) const;
  /// Merges a partial state in AppendPartial's format (same function; a
  /// fresh aggregator thereby deserializes it). Malformed data is a
  /// ParseError and leaves the state unchanged.
  Status MergePartial(std::string_view data, const rdf::Dictionary& dict);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }

 private:
  void CacheMinMaxNums(const rdf::Dictionary& dict);
  /// Fills a fresh aggregator from AppendPartial's bytes.
  Status ParsePartial(std::string_view data);

  sparql::AggFunc func_;
  bool distinct_;
  uint64_t count_ = 0;
  double sum_ = 0;
  bool has_minmax_ = false;
  rdf::TermId min_term_ = rdf::kInvalidTermId;
  rdf::TermId max_term_ = rdf::kInvalidTermId;
  /// Dictionary::AsNumber of min_term_ / max_term_, valid when
  /// minmax_nums_known_ (filled lazily after MergePartial), so a
  /// numeric AddTerm costs one dictionary read instead of CompareTerms'.
  std::optional<double> min_num_, max_num_;
  bool minmax_nums_known_ = false;
  /// SAMPLE witness: the smallest term id seen (deterministic across
  /// engines and partitionings).
  rdf::TermId sample_ = rdf::kInvalidTermId;
  /// GROUP_CONCAT values (term ids; sorted lexically at Finalize).
  std::vector<rdf::TermId> concat_values_;
  std::string separator_;
  std::set<rdf::TermId> seen_;  // DISTINCT only
};

}  // namespace rapida::analytics

#endif  // RAPIDA_ANALYTICS_AGGREGATES_H_
