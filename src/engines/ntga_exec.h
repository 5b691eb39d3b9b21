#ifndef RAPIDA_ENGINES_NTGA_EXEC_H_
#define RAPIDA_ENGINES_NTGA_EXEC_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analytics/binding.h"
#include "engines/dataset.h"
#include "engines/engine.h"
#include "engines/relational_ops.h"
#include "mapreduce/cluster.h"
#include "ntga/operators.h"
#include "ntga/resolved_pattern.h"
#include "util/statusor.h"

namespace rapida::engine {

using ntga::PushedFilters;

/// Per-grouping work item for the TG Agg-Join cycle.
struct NtgaGrouping {
  ntga::AggJoinSpec spec;                  // θ / l / α (composite namespace)
  std::vector<std::string> pattern_vars;   // expansion variable set
  std::vector<std::string> output_columns; // original-namespace names:
                                           // group_by names then agg names
  /// Residual (multi-variable) filters evaluated per solution mapping,
  /// over pattern_vars order. May be null.
  RowPredicate mapping_predicate;
  /// HAVING condition over output_columns (applied to the aggregated
  /// table, after the GROUP-BY-ALL default-row rule). Not owned.
  const sparql::Expr* having = nullptr;
};

/// Matches of a pattern: either a DFS file of serialized
/// NestedTripleGroups (multi-star patterns), or — for one-star patterns —
/// the raw triplegroup files plus the star to filter in the Agg-Join map
/// (pattern matching folds into the aggregation cycle, giving the 2-cycle
/// plans of Table 3).
struct PatternMatches {
  std::string nested_file;
  std::vector<std::string> star_files;
};

/// Physical NTGA plan builder shared by RAPID+ and RAPIDAnalytics: the MR
/// renditions of TG_OptGrpFilter, TG_AlphaJoin (Alg. 2) and TG_AgJ
/// (Alg. 3 with map-side multiAggMap pre-aggregation).
class NtgaExec {
 public:
  NtgaExec(mr::Cluster* cluster, Dataset* dataset,
           const EngineOptions& options, std::string tmp_prefix);

  /// Evaluates a resolved (composite) pattern: (k−1) α-join cycles for a
  /// k-star pattern. `final_alphas` (disjunction; may be empty) filters
  /// joined groups in the last cycle. `pushed_filters` are applied at
  /// triple level during star matching.
  StatusOr<PatternMatches> ComputePatternMatches(
      const ntga::ResolvedPattern& pattern,
      const std::vector<ntga::AlphaCondition>& final_alphas,
      const PushedFilters& pushed_filters, const std::string& label);

  /// Runs the TG Agg-Join(s). `parallel` evaluates all groupings in one
  /// MR cycle (Fig. 6b); otherwise one cycle per grouping (Fig. 6a /
  /// RAPID+). Returns one table per grouping (all backed by shared agg
  /// output files; rows are EncodeRow'd group keys + aggregate values).
  /// `out_files` (optional) receives the backing DFS file per grouping.
  StatusOr<std::vector<analytics::BindingTable>> RunAggJoins(
      const ntga::ResolvedPattern& pattern, const PatternMatches& matches,
      const PushedFilters& pushed_filters,
      const std::vector<NtgaGrouping>& groupings, bool parallel,
      const std::string& label, std::vector<std::string>* out_files = nullptr);

  /// One map-only cycle turning pattern matches into a relational table
  /// over `columns` (pattern variables): parses each nested group (or raw
  /// triplegroup for one-star matches — star filtering folds into the
  /// map), expands the solution mappings (unbound slots stay NULL),
  /// applies the residual `mapping_predicate`, and writes EncodeRow'd
  /// rows. The bridge from NTGA pattern matching to the relational
  /// left-join/union/group-by tail of OPTIONAL/UNION groupings.
  StatusOr<TableRef> ExpandToTable(const ntga::ResolvedPattern& pattern,
                                   const PatternMatches& matches,
                                   const PushedFilters& pushed_filters,
                                   const std::vector<std::string>& columns,
                                   RowPredicate mapping_predicate,
                                   const std::string& label);

  /// Final map-only cycle: joins the aggregated tables and evaluates the
  /// top-level items; returns the result.
  StatusOr<analytics::BindingTable> FinalJoinProject(
      std::vector<analytics::BindingTable> agg_tables,
      const std::vector<sparql::SelectItem>& items,
      const std::vector<std::string>& agg_files, const std::string& label);

  void Cleanup();

 private:
  std::string NextTmp(const std::string& hint);

  mr::Cluster* cluster_;
  Dataset* dataset_;
  EngineOptions options_;
  std::string tmp_prefix_;
  int counter_ = 0;
  std::vector<std::string> temp_files_;
};

}  // namespace rapida::engine

#endif  // RAPIDA_ENGINES_NTGA_EXEC_H_
