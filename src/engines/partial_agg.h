#ifndef RAPIDA_ENGINES_PARTIAL_AGG_H_
#define RAPIDA_ENGINES_PARTIAL_AGG_H_

#include <string>
#include <string_view>
#include <vector>

#include "analytics/aggregates.h"
#include "mapreduce/job.h"
#include "mapreduce/kernels.h"
#include "rdf/dictionary.h"
#include "sparql/ast.h"

namespace rapida::engine {

struct AggReduceScratch;

/// The aggregate columns of one grouping — a relational GROUP BY, or one
/// grouping of a TG_AggJoin (paper Alg. 3) — resolved once per job and
/// shared read-only by its tasks. Both operators fold rows and shuffle
/// values through it, so they agree on one value format per key group:
///   raw row  "R|id,id,..."        one cell per column (COUNT(*): 0)
///   partial  "P|part|part|..."    one Aggregator::AppendPartial per column
class AggColumns {
 public:
  /// Appends a column aggregating the input cell at `pos` (< 0: unbound,
  /// e.g. COUNT(*)).
  void Add(sparql::AggFunc func, bool count_star,
           const std::string& separator, int pos);

  size_t size() const { return fresh_.size(); }
  /// One freshly constructed aggregator per column.
  const std::vector<analytics::Aggregator>& fresh() const { return fresh_; }

  /// Folds one input row into `row` (size() aggregators).
  void AddCells(const rdf::TermId* cells, analytics::Aggregator* row,
                const rdf::Dictionary& dict) const;
  /// Appends the raw-row value of one input row to `out`.
  void AppendRaw(const rdf::TermId* cells, std::string* out) const;

  /// Aggregates one key group's shuffled values into s->row, which starts
  /// from fresh aggregators (reset in place when it already holds this
  /// grouping's row, so a reduce task reuses one row across key groups).
  void Fold(const mr::ValueSpan& values, const rdf::Dictionary& dict,
            AggReduceScratch* s) const;

 private:
  std::vector<analytics::Aggregator> fresh_;
  std::vector<bool> count_star_;
  std::vector<int> pos_;
};

/// Reduce-task scratch of an aggregating reduce, reused across key groups.
struct AggReduceScratch {
  std::vector<analytics::Aggregator> row;
  const AggColumns* row_of = nullptr;  // the grouping `row` belongs to
  std::vector<rdf::TermId> args, out_row;
  std::string val_buf;
};

/// Map-side partial aggregation (the paper's multiAggMap, Alg. 3, and the
/// relational GROUP BY's pre-aggregation), kept in map task scratch: an
/// insertion-ordered HashIndex over the encoded group key, the keys back
/// to back in one byte buffer and the aggregator rows back to back in one
/// vector, so a new group appends to amortized buffers instead of
/// allocating its own.
class PartialAggTable {
 public:
  /// The aggregator row of group `key` (cols.size() aggregators), created
  /// fresh on first sight. Valid until the next Row call.
  analytics::Aggregator* Row(std::string_view key, const AggColumns& cols);

  /// Map.clean(): emits every group as (key, partial value) in insertion
  /// order — keys are unique within a task and the shuffle sorts by key,
  /// so flush order never reaches the output. `buf` is scratch.
  void Flush(mr::MapContext* ctx, std::string* buf) const;

 private:
  std::string_view Key(size_t id) const;

  mr::kernels::HashIndex index_;
  std::string keys_;
  std::vector<size_t> key_end_;  // per group: end of its key in keys_
  std::vector<analytics::Aggregator> aggs_;
  std::vector<size_t> row_end_;  // per group: end of its row in aggs_
};

}  // namespace rapida::engine

#endif  // RAPIDA_ENGINES_PARTIAL_AGG_H_
