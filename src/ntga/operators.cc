#include "ntga/operators.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "analytics/value.h"
#include "sparql/expr_eval.h"
#include "util/logging.h"

namespace rapida::ntga {

namespace {

DataPropKey KeyOfTriple(const rdf::Triple& t, rdf::TermId type_id) {
  DataPropKey key;
  key.property = t.p;
  if (t.p == type_id) key.type_object = t.o;
  return key;
}

/// Writes the cross product of out->candidates[0..width) row-major into
/// the flat buffer (idx[0] varies fastest); width 0 is one empty mapping.
void AppendCrossProduct(BindingExpansion* out) {
  const size_t width = out->width;
  if (width == 0) {
    out->num_rows = 1;
    return;
  }
  out->idx.assign(width, 0);
  std::vector<size_t>& idx = out->idx;
  while (true) {
    for (size_t i = 0; i < width; ++i) {
      out->rows.push_back(out->candidates[i][idx[i]]);
    }
    ++out->num_rows;
    size_t i = 0;
    while (i < width && ++idx[i] == out->candidates[i].size()) {
      idx[i] = 0;
      ++i;
    }
    if (i == width) break;
  }
}

}  // namespace

std::vector<TripleGroup> OptionalGroupFilter(
    const std::vector<TripleGroup>& input, const std::set<DataPropKey>& prim,
    const std::set<DataPropKey>& opt, rdf::TermId type_id) {
  std::vector<TripleGroup> out;
  for (const TripleGroup& tg : input) {
    TripleGroup projected;
    projected.subject = tg.subject;
    for (const rdf::Triple& t : tg.triples) {
      DataPropKey k = KeyOfTriple(t, type_id);
      if (prim.count(k) > 0 || opt.count(k) > 0) {
        projected.triples.push_back(t);
      }
    }
    std::set<DataPropKey> props = projected.Props(type_id);
    bool has_all_primary = std::includes(props.begin(), props.end(),
                                         prim.begin(), prim.end());
    if (has_all_primary) out.push_back(std::move(projected));
  }
  return out;
}

std::optional<TripleGroup> FilterStar(const TripleGroup& tg,
                                      const ResolvedStar& star,
                                      rdf::TermId type_id) {
  if (!star.satisfiable) return std::nullopt;
  // Primary constraints: every primary pattern triple needs a match
  // (property + type object + constant object where given).
  for (const ResolvedStarTriple& pt : star.triples) {
    if (star.primary.count(pt.key) == 0) continue;
    if (!tg.HasProp(pt.key, type_id, pt.const_object)) return std::nullopt;
  }
  // Projection: keep pattern-relevant triples only. For a constant-object
  // pattern triple only the matching triples are relevant.
  TripleGroup out;
  out.subject = tg.subject;
  for (const rdf::Triple& t : tg.triples) {
    DataPropKey k = KeyOfTriple(t, type_id);
    for (const ResolvedStarTriple& pt : star.triples) {
      if (pt.key == k &&
          (pt.const_object == rdf::kInvalidTermId || pt.const_object == t.o)) {
        out.triples.push_back(t);
        break;
      }
    }
  }
  return out;
}

std::optional<TripleGroup> FilterStarWithFilters(
    const TripleGroup& tg, const ResolvedStar& star, rdf::TermId type_id,
    const PushedFilters& pushed, const rdf::Dictionary& dict) {
  std::optional<TripleGroup> base = FilterStar(tg, star, type_id);
  if (!base.has_value()) return std::nullopt;
  for (const ResolvedStarTriple& pt : star.triples) {
    if (pt.object_var.empty()) continue;
    auto it = pushed.find(pt.object_var);
    if (it == pushed.end() || it->second.empty()) continue;
    auto fails = [&](const rdf::Triple& t) {
      if (!(KeyOfTriple(t, type_id) == pt.key)) {
        return false;  // triple belongs to another property
      }
      auto resolve = [&pt, &t](const std::string& v) {
        return v == pt.object_var ? t.o : rdf::kInvalidTermId;
      };
      for (const sparql::Expr* f : it->second) {
        if (!sparql::EffectiveBool(sparql::EvaluateExpr(*f, resolve, dict))) {
          return true;
        }
      }
      return false;
    };
    auto& triples = base->triples;
    triples.erase(std::remove_if(triples.begin(), triples.end(), fails),
                  triples.end());
    if (star.primary.count(pt.key) > 0 &&
        !base->HasProp(pt.key, type_id, pt.const_object)) {
      return std::nullopt;
    }
  }
  return base;
}

StarTextFilter::StarTextFilter(const ResolvedStar& star, rdf::TermId type_id,
                               const PushedFilters& pushed,
                               const rdf::Dictionary* dict)
    : star_(star), type_id_(type_id), pushed_(pushed), dict_(dict) {
  text_path_ = star.triples.size() <= 64;
  if (!text_path_) return;
  for (size_t i = 0; i < star.triples.size(); ++i) {
    const ResolvedStarTriple& rt = star.triples[i];
    PatternTriple pt;
    pt.key = rt.key;
    pt.const_object = rt.const_object;
    pt.object_var = rt.object_var;
    auto it = rt.object_var.empty() ? pushed.end() : pushed.find(rt.object_var);
    if (it != pushed.end()) pt.filters = it->second;
    const uint64_t bit = uint64_t{1} << i;
    const bool primary = star.primary.count(rt.key) > 0;
    if (primary) primary_mask_ |= bit;
    if (!pt.filters.empty()) {
      filtered_mask_ |= bit;
      if (primary) filtered_primary_mask_ |= bit;
    }
    triples_.push_back(std::move(pt));
  }
}

bool StarTextFilter::FailsFilters(const PatternTriple& pt,
                                  rdf::TermId object) const {
  auto resolve = [&pt, object](const std::string& v) {
    return v == pt.object_var ? object : rdf::kInvalidTermId;
  };
  for (const sparql::Expr* f : pt.filters) {
    if (!sparql::EffectiveBool(sparql::EvaluateExpr(*f, resolve, *dict_))) {
      return true;
    }
  }
  return false;
}

bool StarTextFilter::AppendFiltered(std::string_view tg,
                                    std::string* out) const {
  if (!star_.satisfiable) return false;
  const size_t start = out->size();
  if (text_path_) {
    // FilterStarWithFilters on the text. `matched` is FilterStar's primary
    // check (a triple matches key and constant), `survived` the pushdown's
    // re-check on what the FILTERs left; a triple is dropped when any
    // filtered pattern triple of its key rejects its object. The FILTERs
    // run only once the primary check has passed, as in the reference:
    // a second pass when the star has any.
    uint64_t matched = 0, survived = 0;
    auto visit = [&](bool evaluate, rdf::TermId p, rdf::TermId o,
                     std::string_view segment) {
      const DataPropKey key{p, p == type_id_ ? o : rdf::kInvalidTermId};
      uint64_t same_key = 0, hit = 0;
      for (size_t i = 0; i < triples_.size(); ++i) {
        const PatternTriple& pt = triples_[i];
        if (!(pt.key == key)) continue;
        const uint64_t bit = uint64_t{1} << i;
        same_key |= bit;
        if (pt.const_object == rdf::kInvalidTermId || pt.const_object == o) {
          hit |= bit;
        }
      }
      if (hit == 0) return;  // projected away
      matched |= hit;
      if (!evaluate) return;
      for (uint64_t m = same_key & filtered_mask_; m != 0; m &= m - 1) {
        if (FailsFilters(triples_[__builtin_ctzll(m)], o)) return;
      }
      survived |= hit;
      out->append(segment);
    };
    const bool filtered = filtered_mask_ != 0;
    rdf::TermId subject = rdf::kInvalidTermId;
    bool canonical = true;
    if (filtered) {
      canonical = ForEachTripleText(
          tg, &subject, [&](rdf::TermId p, rdf::TermId o, std::string_view) {
            visit(false, p, o, {});
          });
      if (canonical && (matched & primary_mask_) != primary_mask_) {
        return false;
      }
    }
    if (canonical) {
      out->append(tg.substr(0, tg.find(';')));
      canonical = ForEachTripleText(
          tg, &subject,
          [&](rdf::TermId p, rdf::TermId o, std::string_view segment) {
            visit(true, p, o, segment);
          });
    }
    if (canonical) {
      if ((matched & primary_mask_) == primary_mask_ &&
          (survived & filtered_primary_mask_) == filtered_primary_mask_) {
        return true;
      }
      out->resize(start);
      return false;
    }
    out->resize(start);
  }
  auto parsed = ParseTripleGroup(tg);
  if (!parsed.ok()) return false;
  auto filtered =
      FilterStarWithFilters(*parsed, star_, type_id_, pushed_, *dict_);
  if (!filtered.has_value()) return false;
  SerializeTripleGroupTo(*filtered, out);
  return true;
}

std::vector<std::optional<TripleGroup>> NSplit(
    const TripleGroup& tg, const std::set<DataPropKey>& prim,
    const std::vector<std::set<DataPropKey>>& secs, rdf::TermId type_id) {
  std::set<DataPropKey> props = tg.Props(type_id);
  std::vector<std::optional<TripleGroup>> out;
  out.reserve(secs.size());
  for (const std::set<DataPropKey>& sec : secs) {
    bool has_all = std::includes(props.begin(), props.end(), sec.begin(),
                                 sec.end());
    if (!has_all) {
      out.push_back(std::nullopt);
      continue;
    }
    TripleGroup split;
    split.subject = tg.subject;
    for (const rdf::Triple& t : tg.triples) {
      DataPropKey k = KeyOfTriple(t, type_id);
      if (prim.count(k) > 0 || sec.count(k) > 0) split.triples.push_back(t);
    }
    out.push_back(std::move(split));
  }
  return out;
}

bool SatisfiesAlpha(const NestedTripleGroup& ntg, const AlphaCondition& cond,
                    rdf::TermId type_id) {
  for (const AlphaConstraint& c : cond) {
    bool present = ntg.IsFilled(c.star) &&
                   c.key.property != rdf::kInvalidTermId &&
                   ntg.stars[c.star].HasProp(c.key, type_id);
    if (present != c.present) return false;
  }
  return true;
}

bool SatisfiesAnyAlpha(const NestedTripleGroup& ntg,
                       const std::vector<AlphaCondition>& conds,
                       rdf::TermId type_id) {
  if (conds.empty()) return true;
  for (const AlphaCondition& cond : conds) {
    if (SatisfiesAlpha(ntg, cond, type_id)) return true;
  }
  return false;
}

std::vector<rdf::TermId> JoinKeys(const NestedTripleGroup& ntg, int star,
                                  JoinRole role, const DataPropKey& prop,
                                  rdf::TermId type_id) {
  if (!ntg.IsFilled(star)) return {};
  if (role == JoinRole::kSubject) return {ntg.stars[star].subject};
  return ntg.stars[star].ObjectsOf(prop, type_id);
}

std::vector<NestedTripleGroup> AlphaJoin(
    const std::vector<NestedTripleGroup>& left,
    const std::vector<NestedTripleGroup>& right, const ResolvedJoin& join,
    const std::vector<AlphaCondition>& alphas, rdf::TermId type_id) {
  // Hash the right side by its join keys.
  std::unordered_map<rdf::TermId, std::vector<size_t>> index;
  for (size_t r = 0; r < right.size(); ++r) {
    for (rdf::TermId key :
         JoinKeys(right[r], join.star_b, join.role_b, join.prop_b, type_id)) {
      index[key].push_back(r);
    }
  }

  std::vector<NestedTripleGroup> out;
  for (const NestedTripleGroup& l : left) {
    std::vector<rdf::TermId> keys =
        JoinKeys(l, join.star_a, join.role_a, join.prop_a, type_id);
    // A pair may share several keys (multi-valued join property on both
    // sides); emit it once — binding expansion recovers the per-key
    // solutions.
    std::set<size_t> matched;
    for (rdf::TermId key : keys) {
      auto it = index.find(key);
      if (it == index.end()) continue;
      for (size_t r : it->second) matched.insert(r);
    }
    for (size_t r : matched) {
      NestedTripleGroup joined = l;
      size_t n = std::max(joined.stars.size(), right[r].stars.size());
      joined.stars.resize(n);
      for (size_t s = 0; s < right[r].stars.size(); ++s) {
        if (right[r].stars[s].subject != rdf::kInvalidTermId) {
          RAPIDA_DCHECK(joined.stars[s].subject == rdf::kInvalidTermId)
              << "α-join sides overlap on star " << s;
          joined.stars[s] = right[r].stars[s];
        }
      }
      if (SatisfiesAnyAlpha(joined, alphas, type_id)) {
        out.push_back(std::move(joined));
      }
    }
  }
  return out;
}

namespace {

void ExpandBindingsInto(const NestedTripleGroup& ntg,
                        const ResolvedPattern& pattern,
                        const std::vector<std::string>& vars,
                        bool skip_unbound, BindingExpansion* out) {
  out->width = vars.size();
  out->num_rows = 0;
  out->rows.clear();
  if (out->candidates.size() < vars.size()) out->candidates.resize(vars.size());
  // Candidate values per variable: the intersection across every place the
  // variable occurs (subject positions pin it to one value; object
  // positions contribute their object lists).
  for (size_t vi = 0; vi < vars.size(); ++vi) {
    const std::string& var = vars[vi];
    std::vector<rdf::TermId>& values = out->candidates[vi];
    values.clear();
    std::vector<rdf::TermId>& vals = out->vals;
    bool first_source = true;
    for (size_t s = 0; s < pattern.stars.size(); ++s) {
      const ResolvedStar& star = pattern.stars[s];
      bool filled = ntg.IsFilled(static_cast<int>(s));
      if (star.subject_var == var) {
        vals.clear();
        if (filled) vals.push_back(ntg.stars[s].subject);
        if (first_source) {
          values.assign(vals.begin(), vals.end());
          first_source = false;
        } else {
          size_t w = 0;
          for (rdf::TermId v : values) {
            if (std::find(vals.begin(), vals.end(), v) != vals.end()) {
              values[w++] = v;
            }
          }
          values.resize(w);
        }
      }
      for (const ResolvedStarTriple& t : star.triples) {
        if (t.object_var != var) continue;
        vals.clear();
        if (filled) {
          ntg.stars[s].ObjectsOfInto(t.key, pattern.type_id, &vals);
        }
        if (first_source) {
          values.assign(vals.begin(), vals.end());
          first_source = false;
        } else {
          size_t w = 0;
          for (rdf::TermId v : values) {
            if (std::find(vals.begin(), vals.end(), v) != vals.end()) {
              values[w++] = v;
            }
          }
          values.resize(w);
        }
      }
    }
    if (values.empty()) {
      if (skip_unbound) return;  // num_rows == 0
      values.push_back(rdf::kInvalidTermId);
    }
    // Duplicate triples would inflate multiplicity; keep one per value.
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
  }

  AppendCrossProduct(out);
}

}  // namespace

SlotBindings::SlotBindings(
    const ResolvedPattern& pattern,
    const std::vector<std::vector<std::string>>& var_lists,
    const std::vector<AlphaCondition>& alphas)
    : type_id_(pattern.type_id),
      num_stars_(static_cast<int>(pattern.stars.size())),
      star_slots_(pattern.stars.size()) {
  // Same source order as ExpandBindingsInto's scan: per star, the subject
  // first, then the pattern triples binding the variable.
  for (const std::vector<std::string>& vars : var_lists) {
    std::vector<std::vector<Source>>& list = sources_.emplace_back();
    for (const std::string& var : vars) {
      std::vector<Source>& srcs = list.emplace_back();
      for (int s = 0; s < num_stars_; ++s) {
        const ResolvedStar& star = pattern.stars[s];
        if (star.subject_var == var) srcs.push_back(Source{s, -1});
        for (const ResolvedStarTriple& t : star.triples) {
          if (t.object_var == var) srcs.push_back(Source{s, SlotOf(s, t.key)});
        }
      }
    }
  }
  for (const AlphaCondition& cond : alphas) {
    std::vector<AlphaTerm>& terms = alphas_.emplace_back();
    for (const AlphaConstraint& c : cond) {
      AlphaTerm term;
      term.present = c.present;
      if (c.star >= 0 && c.star < num_stars_ &&
          c.key.property != rdf::kInvalidTermId) {
        term.slot = SlotOf(c.star, c.key);
      }
      terms.push_back(term);
    }
  }
}

int SlotBindings::SlotOf(int star, const DataPropKey& key) {
  for (int slot : star_slots_[star]) {
    if (slots_[slot].key == key) return slot;
  }
  slots_.push_back(Slot{star, key});
  star_slots_[star].push_back(static_cast<int>(slots_.size() - 1));
  return static_cast<int>(slots_.size() - 1);
}

bool SlotBindings::Load(const std::string_view* stars, Values* values) const {
  values->subjects.resize(num_stars_);
  values->objects.resize(slots_.size());
  for (auto& objs : values->objects) objs.clear();
  for (int s = 0; s < num_stars_; ++s) {
    rdf::TermId& subject = values->subjects[s];
    subject = rdf::kInvalidTermId;
    if (stars[s].empty()) continue;
    const std::vector<int>& mine = star_slots_[s];
    if (mine.empty()) {
      const char* p = stars[s].data();
      if (!ReadCanonicalId(&p, p + stars[s].size(), &subject)) return false;
      continue;
    }
    bool ok = ForEachTripleText(
        stars[s], &subject,
        [&](rdf::TermId p, rdf::TermId o, std::string_view) {
          const DataPropKey key{p, p == type_id_ ? o : rdf::kInvalidTermId};
          for (int slot : mine) {
            if (slots_[slot].key == key) values->objects[slot].push_back(o);
          }
        });
    if (!ok) return false;
    if (subject == rdf::kInvalidTermId) {
      for (int slot : mine) values->objects[slot].clear();  // unfilled
    }
  }
  return true;
}

bool SlotBindings::Satisfies(size_t alpha, const Values& values) const {
  for (const AlphaTerm& term : alphas_[alpha]) {
    bool present = term.slot >= 0 && !values.objects[term.slot].empty();
    if (present != term.present) return false;
  }
  return true;
}

void SlotBindings::Expand(size_t list, const Values& values,
                          bool skip_unbound, BindingExpansion* out) const {
  const std::vector<std::vector<Source>>& vars = sources_[list];
  out->width = vars.size();
  out->num_rows = 0;
  out->rows.clear();
  if (out->candidates.size() < vars.size()) out->candidates.resize(vars.size());
  for (size_t vi = 0; vi < vars.size(); ++vi) {
    std::vector<rdf::TermId>& cand = out->candidates[vi];
    cand.clear();
    bool first_source = true;
    for (const Source& src : vars[vi]) {
      const rdf::TermId* begin = nullptr;
      const rdf::TermId* end = nullptr;
      if (values.subjects[src.star] != rdf::kInvalidTermId) {
        if (src.slot < 0) {
          begin = &values.subjects[src.star];
          end = begin + 1;
        } else {
          const std::vector<rdf::TermId>& objs = values.objects[src.slot];
          begin = objs.data();
          end = begin + objs.size();
        }
      }
      if (first_source) {
        cand.assign(begin, end);
        first_source = false;
      } else {
        size_t w = 0;
        for (rdf::TermId v : cand) {
          if (std::find(begin, end, v) != end) cand[w++] = v;
        }
        cand.resize(w);
      }
    }
    if (cand.empty()) {
      if (skip_unbound) return;  // num_rows == 0
      cand.push_back(rdf::kInvalidTermId);
    }
    std::sort(cand.begin(), cand.end());
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
  }
  AppendCrossProduct(out);
}

std::vector<std::vector<rdf::TermId>> ExpandBindings(
    const NestedTripleGroup& ntg, const ResolvedPattern& pattern,
    const std::vector<std::string>& vars, bool skip_unbound) {
  BindingExpansion exp;
  ExpandBindingsInto(ntg, pattern, vars, skip_unbound, &exp);
  std::vector<std::vector<rdf::TermId>> out;
  out.reserve(exp.num_rows);
  for (size_t r = 0; r < exp.num_rows; ++r) {
    out.emplace_back(exp.row(r), exp.row(r) + exp.width);
  }
  return out;
}

std::vector<AggregatedGroup> AggJoin(
    const std::vector<NestedTripleGroup>& detail,
    const ResolvedPattern& pattern, const AggJoinSpec& spec,
    const std::vector<std::vector<rdf::TermId>>* explicit_base,
    rdf::Dictionary* dict) {
  // Variables to expand: θ plus every aggregation variable.
  std::vector<std::string> vars = spec.group_vars;
  std::vector<int> agg_var_index(spec.aggs.size(), -1);
  for (size_t a = 0; a < spec.aggs.size(); ++a) {
    if (spec.aggs[a].count_star) continue;
    auto it = std::find(vars.begin(), vars.end(), spec.aggs[a].var);
    if (it == vars.end()) {
      agg_var_index[a] = static_cast<int>(vars.size());
      vars.push_back(spec.aggs[a].var);
    } else {
      agg_var_index[a] = static_cast<int>(it - vars.begin());
    }
  }
  const size_t n_group = spec.group_vars.size();

  std::map<std::vector<rdf::TermId>, std::vector<analytics::Aggregator>>
      groups;
  auto make_aggs = [&spec]() {
    std::vector<analytics::Aggregator> aggs;
    aggs.reserve(spec.aggs.size());
    for (const AggSpec& a : spec.aggs) {
      aggs.emplace_back(a.func, /*distinct=*/false, a.separator);
    }
    return aggs;
  };
  if (explicit_base != nullptr) {
    for (const auto& key : *explicit_base) groups.emplace(key, make_aggs());
  }
  if (n_group == 0) groups.emplace(std::vector<rdf::TermId>{}, make_aggs());

  for (const NestedTripleGroup& ntg : detail) {
    // RNG membership: the detail group must satisfy the α condition.
    if (!SatisfiesAlpha(ntg, spec.alpha, pattern.type_id)) continue;
    for (const std::vector<rdf::TermId>& mapping :
         ExpandBindings(ntg, pattern, vars, /*skip_unbound=*/true)) {
      std::vector<rdf::TermId> key(mapping.begin(),
                                   mapping.begin() + n_group);
      if (explicit_base != nullptr && groups.count(key) == 0) {
        continue;  // base-driven: unknown keys don't create groups
      }
      auto [it, inserted] = groups.emplace(std::move(key), make_aggs());
      for (size_t a = 0; a < spec.aggs.size(); ++a) {
        if (spec.aggs[a].count_star) {
          it->second[a].AddRow();
        } else {
          it->second[a].AddTerm(mapping[agg_var_index[a]], *dict);
        }
      }
    }
  }

  std::vector<AggregatedGroup> out;
  out.reserve(groups.size());
  for (auto& [key, aggs] : groups) {
    AggregatedGroup g;
    g.key = key;
    for (const analytics::Aggregator& a : aggs) {
      g.values.push_back(a.Finalize(dict));
    }
    out.push_back(std::move(g));
  }
  return out;
}

}  // namespace rapida::ntga
