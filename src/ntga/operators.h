#ifndef RAPIDA_NTGA_OPERATORS_H_
#define RAPIDA_NTGA_OPERATORS_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analytics/aggregates.h"
#include "ntga/resolved_pattern.h"
#include "ntga/triplegroup.h"
#include "rdf/dictionary.h"
#include "sparql/ast.h"

namespace rapida::ntga {

// ---------------------------------------------------------------------------
// σ^γopt — Optional Group Filter (Def. 3.3)
// ---------------------------------------------------------------------------

/// Set-level operator exactly as defined: keeps triplegroups whose property
/// set contains all of P_prim and is contained in P_prim ∪ P_opt; member
/// triples outside those properties are projected away (the physical
/// operator's projection of irrelevant triples).
std::vector<TripleGroup> OptionalGroupFilter(
    const std::vector<TripleGroup>& input, const std::set<DataPropKey>& prim,
    const std::set<DataPropKey>& opt, rdf::TermId type_id);

/// Engine-level variant against a resolved star pattern: additionally
/// enforces constant objects (e.g. pub_type "News") and keeps only the
/// pattern-relevant triples. Returns nullopt when the group fails a
/// primary constraint.
std::optional<TripleGroup> FilterStar(const TripleGroup& tg,
                                      const ResolvedStar& star,
                                      rdf::TermId type_id);

/// Single-variable FILTERs pushed into star matching, keyed by composite
/// variable (evaluated per candidate triple).
using PushedFilters = std::map<std::string, std::vector<const sparql::Expr*>>;

/// TG_OptGrpFilter with triple-level filter pushdown: after the star
/// projection, triples whose object fails a pushed single-variable filter
/// are removed; losing every triple of a *primary* property rejects the
/// whole group (secondary properties just end up absent — exactly the
/// per-pattern semantics the α conditions test later).
std::optional<TripleGroup> FilterStarWithFilters(
    const TripleGroup& tg, const ResolvedStar& star, rdf::TermId type_id,
    const PushedFilters& pushed, const rdf::Dictionary& dict);

/// FilterStarWithFilters on the serialized form, compiled once per job.
/// One pass over "subj;p,o;..." checks the primary constraints and copies
/// each kept ";p,o" segment verbatim; an object is evaluated only where a
/// pushed FILTER reads it. Text that is not canonical takes the
/// parse/filter/serialize path, so the output always equals
/// SerializeTripleGroup(*FilterStarWithFilters(ParseTripleGroup(tg))).
/// Immutable after construction: one instance serves concurrent tasks.
class StarTextFilter {
 public:
  StarTextFilter(const ResolvedStar& star, rdf::TermId type_id,
                 const PushedFilters& pushed, const rdf::Dictionary* dict);

  /// Appends the filtered group to `out` and returns true; returns false,
  /// leaving `out` as it was, when the group is rejected or unparsable.
  bool AppendFiltered(std::string_view tg, std::string* out) const;

 private:
  /// One pattern triple of the star. Bit i of the masks is triples_[i].
  struct PatternTriple {
    DataPropKey key;
    rdf::TermId const_object = rdf::kInvalidTermId;
    std::string object_var;
    std::vector<const sparql::Expr*> filters;  // pushed on object_var
  };

  bool FailsFilters(const PatternTriple& pt, rdf::TermId object) const;

  ResolvedStar star_;
  rdf::TermId type_id_;
  PushedFilters pushed_;
  const rdf::Dictionary* dict_;
  std::vector<PatternTriple> triples_;
  bool text_path_ = true;  // false past 64 pattern triples (mask width)
  uint64_t primary_mask_ = 0;           // key is primary
  uint64_t filtered_primary_mask_ = 0;  // ...and has pushed filters
  uint64_t filtered_mask_ = 0;          // has pushed filters
};

// ---------------------------------------------------------------------------
// χ — n-split (Def. 3.4)
// ---------------------------------------------------------------------------

/// Extracts the n per-pattern subsets of a composite-star triplegroup.
/// Result i is present iff the group has matches for every property in
/// secs[i]; it contains the primary triples plus the secs[i] triples.
std::vector<std::optional<TripleGroup>> NSplit(
    const TripleGroup& tg, const std::set<DataPropKey>& prim,
    const std::vector<std::set<DataPropKey>>& secs, rdf::TermId type_id);

// ---------------------------------------------------------------------------
// ⋈^γ_α — α-Join (Def. 3.5, Table 2)
// ---------------------------------------------------------------------------

/// One conjunct of an α condition: the property `key` of star `star` must
/// be present (present=true) or absent (present=false). The planner emits
/// presence-only conditions (see DESIGN.md on Table 2); absence conditions
/// are supported for the operator's full generality.
struct AlphaConstraint {
  int star = 0;
  DataPropKey key;
  bool present = true;
};

/// A conjunction of constraints; a list of AlphaConditions is a
/// disjunction (one per original graph pattern).
using AlphaCondition = std::vector<AlphaConstraint>;

bool SatisfiesAlpha(const NestedTripleGroup& ntg, const AlphaCondition& cond,
                    rdf::TermId type_id);
bool SatisfiesAnyAlpha(const NestedTripleGroup& ntg,
                       const std::vector<AlphaCondition>& conds,
                       rdf::TermId type_id);

/// Join keys of a nested triplegroup at a join endpoint: the star's
/// subject (one key) or the objects of the joining property (possibly
/// several — multi-valued join properties fan out, as in Alg. 2's map).
std::vector<rdf::TermId> JoinKeys(const NestedTripleGroup& ntg, int star,
                                  JoinRole role, const DataPropKey& prop,
                                  rdf::TermId type_id);

/// In-memory α-Join of two classes of nested triplegroups along `join`.
/// A joined group is emitted only if it satisfies at least one of `alphas`
/// (empty `alphas` = no α filtering, used for intermediate joins of
/// 3+-star patterns where the condition is only decidable at the end).
std::vector<NestedTripleGroup> AlphaJoin(
    const std::vector<NestedTripleGroup>& left,
    const std::vector<NestedTripleGroup>& right, const ResolvedJoin& join,
    const std::vector<AlphaCondition>& alphas, rdf::TermId type_id);

// ---------------------------------------------------------------------------
// Binding expansion (shared by Agg-Join and result extraction)
// ---------------------------------------------------------------------------

/// Enumerates the solution mappings a pattern match induces for the given
/// composite variables: the cross product over multi-valued properties,
/// matching SPARQL multiplicity semantics. A variable bound to a star the
/// match did not fill (or to an absent optional property) yields
/// kInvalidTermId in that position; if `skip_unbound` is true such
/// mappings are dropped instead.
std::vector<std::vector<rdf::TermId>> ExpandBindings(
    const NestedTripleGroup& ntg, const ResolvedPattern& pattern,
    const std::vector<std::string>& vars, bool skip_unbound);

/// Flat, scratch-reusing expansion output for per-record loops
/// (SlotBindings::Expand): rows are written row-major into `rows`
/// (num_rows x width) and every internal buffer is reused across calls, so
/// a warm expansion allocates nothing. Row order is identical to
/// ExpandBindings'.
struct BindingExpansion {
  std::vector<rdf::TermId> rows;
  size_t width = 0;
  size_t num_rows = 0;

  const rdf::TermId* row(size_t r) const { return rows.data() + r * width; }

  // Internal scratch (candidate pools, odometer, per-source values).
  std::vector<std::vector<rdf::TermId>> candidates;
  std::vector<size_t> idx;
  std::vector<rdf::TermId> vals;
};

/// ExpandBindings and SatisfiesAlpha over serialized stars, with the
/// variable lookups done once per job: every variable occurrence and every
/// α constraint is resolved to a star's subject or to a slot — the objects
/// of one property key of one star. Per record, Load reads each filled
/// star's triples once into the slot value lists; Expand and Satisfies then
/// read only the slots. Immutable after construction; the per-record state
/// lives in a caller-owned Values scratch.
class SlotBindings {
 public:
  struct Values {
    std::vector<rdf::TermId> subjects;              // per star; 0 = unfilled
    std::vector<std::vector<rdf::TermId>> objects;  // per slot, triple order
  };

  SlotBindings(const ResolvedPattern& pattern,
               const std::vector<std::vector<std::string>>& var_lists,
               const std::vector<AlphaCondition>& alphas);

  /// Decodes stars[0..num_stars): each a canonical "subj;p,o;..." text, or
  /// empty when unfilled. Returns false if a star is not canonical.
  bool Load(const std::string_view* stars, Values* values) const;

  /// SatisfiesAlpha(ntg, alphas[alpha]) for the loaded match.
  bool Satisfies(size_t alpha, const Values& values) const;

  /// ExpandBindings(ntg, pattern, var_lists[list], skip_unbound) for the
  /// loaded match: same rows in the same order.
  void Expand(size_t list, const Values& values, bool skip_unbound,
              BindingExpansion* out) const;

 private:
  struct Slot {
    int star = 0;
    DataPropKey key;
  };
  /// Where one occurrence of a variable takes its values.
  struct Source {
    int star = 0;
    int slot = -1;  // -1: the star's subject
  };
  struct AlphaTerm {
    int slot = -1;  // -1: never present (bad star or unknown property)
    bool present = true;
  };

  int SlotOf(int star, const DataPropKey& key);

  rdf::TermId type_id_;
  int num_stars_;
  std::vector<Slot> slots_;
  std::vector<std::vector<int>> star_slots_;  // star -> its slots
  std::vector<std::vector<std::vector<Source>>> sources_;  // list, var
  std::vector<std::vector<AlphaTerm>> alphas_;
};

// ---------------------------------------------------------------------------
// γ^AgJ — TG Agg-Join (Def. 3.6, Alg. 3)
// ---------------------------------------------------------------------------

/// One aggregation f_k(a_k) with its output column name.
struct AggSpec {
  sparql::AggFunc func = sparql::AggFunc::kCount;
  std::string var;          // aggregation variable (composite namespace)
  bool count_star = false;  // COUNT(*) over solution mappings
  std::string output_name;
  std::string separator = " ";  // GROUP_CONCAT only
};

/// One decoupled grouping-aggregation over the composite pattern: θ is the
/// grouping variable list (empty = GROUP BY ALL), l the aggregate list,
/// α the pattern's secondary-presence condition.
struct AggJoinSpec {
  std::vector<std::string> group_vars;  // θ
  std::vector<AggSpec> aggs;            // l
  AlphaCondition alpha;                 // α
};

/// An aggregated triplegroup: the grouping key (bindings of θ, in order)
/// and the aggregate values (aligned with spec.aggs).
struct AggregatedGroup {
  std::vector<rdf::TermId> key;
  std::vector<rdf::TermId> values;

  friend bool operator==(const AggregatedGroup& a, const AggregatedGroup& b) {
    return a.key == b.key && a.values == b.values;
  }
};

/// In-memory TG Agg-Join: groups the α-qualifying detail matches by θ and
/// aggregates. When `explicit_base` is non-null, one output group is
/// produced per base key (keys whose RNG is empty get default aggregate
/// values — Def. 3.6's btg with empty RNG); otherwise groups are derived
/// from the detail side, and with empty θ the single ALL-group is always
/// produced.
std::vector<AggregatedGroup> AggJoin(
    const std::vector<NestedTripleGroup>& detail,
    const ResolvedPattern& pattern, const AggJoinSpec& spec,
    const std::vector<std::vector<rdf::TermId>>* explicit_base,
    rdf::Dictionary* dict);

}  // namespace rapida::ntga

#endif  // RAPIDA_NTGA_OPERATORS_H_
