#include "engines/ntga_exec.h"

#include <atomic>
#include <set>

#include "analytics/aggregates.h"
#include "engines/partial_agg.h"
#include "mapreduce/kernels.h"
#include "util/string_util.h"

namespace rapida::engine {

using analytics::Aggregator;
using ntga::ResolvedPattern;
using ntga::ResolvedStar;

namespace {

/// Per-input-tag role in a TG_AlphaJoin cycle.
struct TagRole {
  bool is_nested = false;  // accumulated nested input vs raw star file
  int star = -1;           // star to filter (raw inputs)
  bool left_side = true;
  ntga::JoinRole role = ntga::JoinRole::kSubject;
  ntga::DataPropKey prop;
};

/// ntga::JoinKeys on one star's canonical text ("" when unfilled): calls
/// fn(key) for each join key, in the same order.
template <typename Fn>
void ForEachJoinKey(std::string_view star, ntga::JoinRole role,
                    const ntga::DataPropKey& prop, rdf::TermId type_id,
                    Fn&& fn) {
  if (star.empty()) return;
  rdf::TermId subject = rdf::kInvalidTermId;
  if (role == ntga::JoinRole::kSubject) {
    const char* p = star.data();
    if (ntga::ReadCanonicalId(&p, p + star.size(), &subject) &&
        subject != rdf::kInvalidTermId) {
      fn(subject);
    }
    return;
  }
  ntga::ForEachTripleText(
      star, &subject, [&](rdf::TermId p, rdf::TermId o, std::string_view) {
        const ntga::DataPropKey key{p,
                                    p == type_id ? o : rdf::kInvalidTermId};
        if (subject != rdf::kInvalidTermId && key == prop) fn(o);
      });
}

/// Views one Agg-Join / expand input record as per-star texts: a raw
/// triplegroup through the star-0 filter (one-star patterns, `filter`
/// set) or a serialized nested group. `text` holds the filtered (or
/// canonicalized) bytes the views may point into. False: no match.
bool ViewMatch(const mr::Record& r, const ntga::StarTextFilter* filter,
               int num_stars, std::string* text,
               std::vector<std::string_view>* stars) {
  stars->assign(num_stars, std::string_view());
  if (filter != nullptr) {
    text->clear();
    if (!filter->AppendFiltered(r.value, text)) return false;
    (*stars)[0] = *text;
    return true;
  }
  std::string_view bytes;
  return ntga::ViewNestedCanonical(r.value, num_stars, text, &bytes,
                                   stars->data());
}

/// Per-map-task scratch of TG_AlphaJoin.
struct AlphaMapScratch {
  std::string canon;  // a non-canonical nested input, rewritten
  std::vector<std::string_view> stars;
  std::string key_buf, val_buf;
};

/// Per-reduce-task scratch of TG_AlphaJoin: the star views of each side's
/// values (num_stars per value, pointing into the shuffle partition), the
/// merged views the α check loads, and the emit buffer.
struct AlphaReduceScratch {
  std::vector<std::string_view> left, right, merged;
  ntga::SlotBindings::Values values;
  std::string buf;
};

/// Per-map-task scratch of the TG_AggJoin and expand maps.
struct MatchMapScratch {
  PartialAggTable table;  // multiAggMap over "gid#grpkey" (Alg. 3)
  std::string text;
  std::vector<std::string_view> stars;
  ntga::SlotBindings::Values values;
  ntga::BindingExpansion exp;
  std::vector<rdf::TermId> row_buf;
  std::string key_buf, val_buf;
};

}  // namespace

NtgaExec::NtgaExec(mr::Cluster* cluster, Dataset* dataset,
                   const EngineOptions& options, std::string tmp_prefix)
    : cluster_(cluster),
      dataset_(dataset),
      options_(options),
      tmp_prefix_(std::move(tmp_prefix)) {}

std::string NtgaExec::NextTmp(const std::string& hint) {
  std::string name =
      tmp_prefix_ + ":" + std::to_string(counter_++) + ":" + hint;
  temp_files_.push_back(name);
  return name;
}

void NtgaExec::Cleanup() {
  for (const std::string& f : temp_files_) {
    if (dataset_->dfs().Exists(f)) (void)dataset_->dfs().Delete(f);
  }
  temp_files_.clear();
}

StatusOr<PatternMatches> NtgaExec::ComputePatternMatches(
    const ResolvedPattern& pattern,
    const std::vector<ntga::AlphaCondition>& final_alphas,
    const PushedFilters& pushed_filters, const std::string& label) {
  RAPIDA_RETURN_IF_ERROR(dataset_->EnsureTripleGroups());
  const int num_stars = static_cast<int>(pattern.stars.size());

  auto star_files = [this, &pattern](int star) {
    std::set<rdf::TermId> props;
    for (const ntga::DataPropKey& k : pattern.stars[star].primary) {
      props.insert(k.property);
    }
    return dataset_->TgFilesCovering(props);
  };

  if (num_stars == 1) {
    PatternMatches out;
    out.star_files = star_files(0);
    return out;
  }

  auto star_filters = std::make_shared<std::vector<ntga::StarTextFilter>>();
  for (const ResolvedStar& star : pattern.stars) {
    star_filters->emplace_back(star, pattern.type_id, pushed_filters,
                               &dataset_->dict());
  }
  rdf::TermId type_id = pattern.type_id;

  std::vector<bool> joined(num_stars, false);
  std::vector<bool> edge_done(pattern.joins.size(), false);
  std::string acc_file;  // empty until the first cycle completes
  int acc_anchor = -1;   // star the accumulated side started from
  int cycle = 0;
  int remaining = num_stars;

  // Greedy size-based ordering: estimate each star's input volume as the
  // stored bytes of its covering triplegroup files.
  const bool greedy = options_.greedy_join_order;
  std::vector<uint64_t> star_bytes(num_stars, 0);
  if (greedy) {
    for (int s = 0; s < num_stars; ++s) {
      for (const std::string& f : star_files(s)) {
        auto file = dataset_->dfs().Open(f);
        if (file.ok()) star_bytes[s] += (*file)->stored_bytes;
      }
    }
  }

  while (remaining > 0 || acc_file.empty()) {
    // Pick the next edge: one endpoint joined (or, for the first cycle,
    // any edge). Greedy mode minimizes the estimated size of the stars
    // the cycle pulls in.
    int pick = -1;
    bool first_cycle = acc_file.empty();
    uint64_t best_cost = 0;
    for (size_t e = 0; e < pattern.joins.size(); ++e) {
      if (edge_done[e]) continue;
      const ntga::ResolvedJoin& edge = pattern.joins[e];
      bool eligible =
          first_cycle || joined[edge.star_a] != joined[edge.star_b];
      if (!eligible) continue;
      if (!greedy) {
        pick = static_cast<int>(e);
        break;
      }
      uint64_t cost = 0;
      if (first_cycle) {
        cost = star_bytes[edge.star_a] + star_bytes[edge.star_b];
      } else {
        cost = star_bytes[joined[edge.star_a] ? edge.star_b : edge.star_a];
      }
      if (pick < 0 || cost < best_cost) {
        pick = static_cast<int>(e);
        best_cost = cost;
      }
    }
    if (pick < 0) {
      return Status::InvalidArgument(
          "graph pattern is not connected by join variables");
    }
    edge_done[pick] = true;
    const ntga::ResolvedJoin& edge = pattern.joins[pick];

    // Which endpoint is already in the accumulated side?
    int left_star, right_star;
    ntga::JoinRole left_role, right_role;
    ntga::DataPropKey left_prop, right_prop;
    if (first_cycle || joined[edge.star_a]) {
      left_star = edge.star_a;
      left_role = edge.role_a;
      left_prop = edge.prop_a;
      right_star = edge.star_b;
      right_role = edge.role_b;
      right_prop = edge.prop_b;
    } else {
      left_star = edge.star_b;
      left_role = edge.role_b;
      left_prop = edge.prop_b;
      right_star = edge.star_a;
      right_role = edge.role_a;
      right_prop = edge.prop_a;
    }

    mr::JobConfig job;
    job.name = label + ":alphajoin" + std::to_string(cycle);
    std::vector<TagRole> roles;
    if (first_cycle) {
      for (const std::string& f : star_files(left_star)) {
        job.inputs.push_back(f);
        roles.push_back(TagRole{false, left_star, true, left_role, left_prop});
      }
      joined[left_star] = true;
      acc_anchor = left_star;
      --remaining;  // the anchor star joins the accumulated set
    } else {
      job.inputs.push_back(acc_file);
      roles.push_back(TagRole{true, -1, true, left_role, left_prop});
    }
    for (const std::string& f : star_files(right_star)) {
      job.inputs.push_back(f);
      roles.push_back(
          TagRole{false, right_star, false, right_role, right_prop});
    }
    joined[right_star] = true;
    --remaining;
    bool last_cycle = remaining == 0;

    std::string out_file = NextTmp(label + ":aj" + std::to_string(cycle));
    job.output = out_file;

    auto shared_roles = std::make_shared<std::vector<TagRole>>(roles);
    // The accumulated (nested) side's join endpoint is the left star of
    // the current edge. A nested input goes out as its own bytes and a raw
    // one as "star:" + its filtered text; only the endpoint star is read,
    // for its join keys.
    int nested_endpoint_star = left_star;
    job.map = [shared_roles, star_filters, type_id, num_stars,
               nested_endpoint_star](const mr::Record& r, int tag,
                                     mr::MapContext* ctx) {
      const TagRole& role = (*shared_roles)[tag];
      AlphaMapScratch* s = ctx->TaskState<AlphaMapScratch>();
      s->val_buf.assign(role.left_side ? "L|" : "R|");
      std::string_view endpoint;
      if (role.is_nested) {
        std::string_view bytes;
        s->stars.resize(num_stars);
        if (!ntga::ViewNestedCanonical(r.value, num_stars, &s->canon,
                                       &bytes, s->stars.data())) {
          return;
        }
        s->val_buf.append(bytes);
        endpoint = s->stars[nested_endpoint_star];
      } else {
        mr::kernels::AppendDecimal(&s->val_buf,
                                   static_cast<uint64_t>(role.star));
        s->val_buf += ':';
        const size_t at = s->val_buf.size();
        if (!(*star_filters)[role.star].AppendFiltered(r.value, &s->val_buf)) {
          return;
        }
        endpoint = std::string_view(s->val_buf).substr(at);
      }
      ForEachJoinKey(endpoint, role.role, role.prop, type_id,
                     [&](rdf::TermId key) {
                       s->key_buf.clear();
                       mr::kernels::AppendDecimal(&s->key_buf, key);
                       ctx->Emit(s->key_buf, s->val_buf);
                     });
    };

    // The reduce splices each left/right pair's star texts; only the last
    // cycle filters by α, decoding just the stars its conditions name.
    std::shared_ptr<const ntga::SlotBindings> alpha_slots;
    const size_t num_alphas = last_cycle ? final_alphas.size() : 0;
    if (num_alphas > 0) {
      alpha_slots =
          std::make_shared<ntga::SlotBindings>(
          pattern, std::vector<std::vector<std::string>>{}, final_alphas);
    }
    job.reduce = [alpha_slots, num_alphas, num_stars](
                     std::string_view /*key*/, const mr::ValueSpan& values,
                     mr::ReduceContext* ctx) {
      AlphaReduceScratch* s = ctx->TaskState<AlphaReduceScratch>();
      const size_t n = static_cast<size_t>(num_stars);
      size_t nleft = 0, nright = 0;
      for (std::string_view v : values) {
        if (v.size() < 2) continue;
        const bool is_left = v[0] == 'L';
        std::vector<std::string_view>& pool = is_left ? s->left : s->right;
        size_t& count = is_left ? nleft : nright;
        if (pool.size() < (count + 1) * n) pool.resize((count + 1) * n);
        // The map emits only canonical groups: no need to re-check them.
        if (!ntga::SplitNested(v.substr(2), num_stars, &pool[count * n])) {
          continue;
        }
        ++count;
      }
      s->merged.resize(n);
      for (size_t li = 0; li < nleft; ++li) {
        const std::string_view* l = &s->left[li * n];
        for (size_t ri = 0; ri < nright; ++ri) {
          const std::string_view* r = &s->right[ri * n];
          if (num_alphas > 0) {
            for (size_t st = 0; st < n; ++st) {
              s->merged[st] = r[st].empty() ? l[st] : r[st];
            }
            if (!alpha_slots->Load(s->merged.data(), &s->values)) continue;
            bool any = false;
            for (size_t a = 0; a < num_alphas && !any; ++a) {
              any = alpha_slots->Satisfies(a, s->values);
            }
            if (!any) continue;
          }
          s->buf.clear();
          ntga::SpliceNestedTo(l, r, num_stars, &s->buf);
          ctx->Emit("", s->buf);
        }
      }
    };
    // Pure function of (key, values): reducers may run concurrently.
    job.reduce_parallel_safe = true;

    RAPIDA_ASSIGN_OR_RETURN(mr::JobStats stats, cluster_->Run(job));
    (void)stats;
    acc_file = out_file;
    ++cycle;
    (void)acc_anchor;
  }

  PatternMatches out;
  out.nested_file = acc_file;
  return out;
}

StatusOr<std::vector<analytics::BindingTable>> NtgaExec::RunAggJoins(
    const ResolvedPattern& pattern, const PatternMatches& matches,
    const PushedFilters& pushed_filters,
    const std::vector<NtgaGrouping>& groupings, bool parallel,
    const std::string& label, std::vector<std::string>* out_files) {
  const int num_stars = static_cast<int>(pattern.stars.size());
  const bool star_mode = matches.nested_file.empty();
  rdf::Dictionary* dict = &dataset_->dict();
  // One-star patterns filter the raw triplegroups in the Agg-Join map.
  std::shared_ptr<const ntga::StarTextFilter> star_filter;
  if (star_mode) {
    star_filter = std::make_shared<ntga::StarTextFilter>(
        pattern.stars[0], pattern.type_id, pushed_filters, dict);
  }

  // Job batches: all groupings in one cycle (parallel Agg-Join, Fig. 6b)
  // or one cycle each (Fig. 6a).
  std::vector<std::vector<int>> batches;
  if (parallel) {
    std::vector<int> all(groupings.size());
    for (size_t i = 0; i < groupings.size(); ++i) all[i] = static_cast<int>(i);
    batches.push_back(all);
  } else {
    for (size_t i = 0; i < groupings.size(); ++i) {
      batches.push_back({static_cast<int>(i)});
    }
  }

  std::vector<std::string> out_file_of(groupings.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    mr::JobConfig job;
    job.name = label + ":aggjoin" + (parallel ? "(parallel)" : "") +
               (batches.size() > 1 ? std::to_string(b) : "");
    if (star_mode) {
      job.inputs = matches.star_files;
    } else {
      job.inputs = {matches.nested_file};
    }
    std::string out_file =
        NextTmp(label + ":agg" + std::to_string(b));
    job.output = out_file;
    for (int g : batches[b]) out_file_of[g] = out_file;

    auto batch = std::make_shared<std::vector<int>>(batches[b]);
    auto shared_groupings =
        std::make_shared<std::vector<NtgaGrouping>>();
    for (const NtgaGrouping& g : groupings) {
      NtgaGrouping copy;
      copy.spec = g.spec;
      copy.pattern_vars = g.pattern_vars;
      copy.output_columns = g.output_columns;
      copy.mapping_predicate = g.mapping_predicate;
      copy.having = g.having;
      shared_groupings->push_back(std::move(copy));
    }

    // Variable positions within each grouping's pattern_vars, resolved
    // once per job (-1: not bound there, or COUNT(*)); indexed by gid.
    struct GroupingPlan {
      std::vector<int> group_pos;
      AggColumns aggs;
    };
    auto plans =
        std::make_shared<std::vector<GroupingPlan>>(groupings.size());
    std::vector<std::vector<std::string>> var_lists;
    std::vector<ntga::AlphaCondition> alphas;
    for (int g : batches[b]) {
      const NtgaGrouping& grouping = groupings[g];
      auto pos_of = [&grouping](const std::string& v) {
        for (size_t i = 0; i < grouping.pattern_vars.size(); ++i) {
          if (grouping.pattern_vars[i] == v) return static_cast<int>(i);
        }
        return -1;
      };
      GroupingPlan& plan = (*plans)[g];
      for (const std::string& v : grouping.spec.group_vars) {
        plan.group_pos.push_back(pos_of(v));
      }
      for (const ntga::AggSpec& a : grouping.spec.aggs) {
        plan.aggs.Add(a.func, a.count_star, a.separator,
                      a.count_star ? -1 : pos_of(a.var));
      }
      var_lists.push_back(grouping.pattern_vars);
      alphas.push_back(grouping.spec.alpha);
    }
    auto slots =
        std::make_shared<ntga::SlotBindings>(pattern, var_lists, alphas);

    // Per-mapper multiAggMap (Alg. 3): key "gid#grpkey" -> aggregators,
    // kept in MapContext::TaskState so concurrent map tasks accumulate into
    // independent tables, flushed by map_finish below in insertion order
    // (keys are unique per task and the shuffle sorts by key).
    const bool partial = options_.partial_aggregation;
    job.map = [shared_groupings, batch, plans, slots, star_filter, dict,
               num_stars, partial](const mr::Record& r, int,
                                   mr::MapContext* ctx) {
      MatchMapScratch* s = ctx->TaskState<MatchMapScratch>();
      if (!ViewMatch(r, star_filter.get(), num_stars, &s->text, &s->stars) ||
          !slots->Load(s->stars.data(), &s->values)) {
        return;
      }
      for (size_t bi = 0; bi < batch->size(); ++bi) {
        const int g = (*batch)[bi];
        const NtgaGrouping& grouping = (*shared_groupings)[g];
        const GroupingPlan& plan = (*plans)[g];
        if (!slots->Satisfies(bi, s->values)) continue;
        slots->Expand(bi, s->values, /*skip_unbound=*/true, &s->exp);
        for (size_t row = 0; row < s->exp.num_rows; ++row) {
          const rdf::TermId* mapping = s->exp.row(row);
          if (grouping.mapping_predicate) {
            s->row_buf.assign(mapping, mapping + s->exp.width);
            if (!grouping.mapping_predicate(s->row_buf)) continue;
          }
          s->key_buf.clear();
          mr::kernels::AppendDecimal(&s->key_buf, static_cast<uint64_t>(g));
          s->key_buf += '#';
          for (size_t k = 0; k < plan.group_pos.size(); ++k) {
            if (k > 0) s->key_buf += ',';
            const int i = plan.group_pos[k];
            mr::kernels::AppendDecimal(
                &s->key_buf, i < 0 ? rdf::kInvalidTermId : mapping[i]);
          }
          if (partial) {
            plan.aggs.AddCells(mapping, s->table.Row(s->key_buf, plan.aggs),
                               *dict);
          } else {
            s->val_buf.clear();
            plan.aggs.AppendRaw(mapping, &s->val_buf);
            ctx->Emit(s->key_buf, s->val_buf);
          }
        }
      }
    };
    if (partial) {
      job.map_finish = [](mr::MapContext* ctx) {
        MatchMapScratch* s = ctx->TaskState<MatchMapScratch>();
        s->table.Flush(ctx, &s->val_buf);
      };
    }

    job.reduce = [plans, dict](std::string_view key,
                               const mr::ValueSpan& values,
                               mr::ReduceContext* ctx) {
      size_t hash_pos = key.find('#');
      if (hash_pos == std::string_view::npos) return;
      int64_t gid = 0;
      if (!ParseInt64(key.substr(0, hash_pos), &gid) || gid < 0 ||
          static_cast<size_t>(gid) >= plans->size()) {
        return;
      }
      AggReduceScratch* s = ctx->TaskState<AggReduceScratch>();
      (*plans)[static_cast<size_t>(gid)].aggs.Fold(values, *dict, s);
      DecodeRowInto(key.substr(hash_pos + 1), &s->out_row);
      for (Aggregator& a : s->row) s->out_row.push_back(a.Finalize(dict));
      s->val_buf.clear();
      AppendRow(&s->val_buf, s->out_row);
      ctx->Emit(key.substr(0, hash_pos), s->val_buf);
    };

    RAPIDA_ASSIGN_OR_RETURN(mr::JobStats stats, cluster_->Run(job));
    (void)stats;
  }

  // Collect per-grouping tables.
  std::vector<analytics::BindingTable> out;
  for (size_t g = 0; g < groupings.size(); ++g) {
    analytics::BindingTable table(groupings[g].output_columns);
    RAPIDA_ASSIGN_OR_RETURN(const mr::Dfs::File* f,
                            dataset_->dfs().Open(out_file_of[g]));
    std::string gid = std::to_string(g);
    for (const mr::Record& r : f->records) {
      if (r.key != gid) continue;
      std::vector<rdf::TermId> row = DecodeRow(r.value);
      row.resize(groupings[g].output_columns.size(), rdf::kInvalidTermId);
      table.AddRow(std::move(row));
    }
    // GROUP BY ALL over no qualifying detail still yields the default row.
    if (groupings[g].spec.group_vars.empty() && table.NumRows() == 0) {
      std::vector<rdf::TermId> row;
      for (const ntga::AggSpec& a : groupings[g].spec.aggs) {
        Aggregator empty(a.func, false, a.separator);
        row.push_back(empty.Finalize(dict));
      }
      table.AddRow(std::move(row));
    }
    if (groupings[g].having != nullptr) {
      analytics::FilterRowsByExpr(&table, *groupings[g].having, *dict);
    }
    out.push_back(std::move(table));
  }
  if (out_files != nullptr) *out_files = out_file_of;
  return out;
}

StatusOr<TableRef> NtgaExec::ExpandToTable(
    const ResolvedPattern& pattern, const PatternMatches& matches,
    const PushedFilters& pushed_filters,
    const std::vector<std::string>& columns, RowPredicate mapping_predicate,
    const std::string& label) {
  const int num_stars = static_cast<int>(pattern.stars.size());
  const bool star_mode = matches.nested_file.empty();
  std::shared_ptr<const ntga::StarTextFilter> star_filter;
  if (star_mode) {
    star_filter = std::make_shared<ntga::StarTextFilter>(
        pattern.stars[0], pattern.type_id, pushed_filters, &dataset_->dict());
  }
  auto slots = std::make_shared<ntga::SlotBindings>(
      pattern, std::vector<std::vector<std::string>>{columns},
      std::vector<ntga::AlphaCondition>{});

  mr::JobConfig job;
  job.name = label + ":expand (map-only)";
  if (star_mode) {
    job.inputs = matches.star_files;
  } else {
    job.inputs = {matches.nested_file};
  }
  std::string out_file = NextTmp(label + ":rows");
  job.output = out_file;

  job.map = [star_filter, slots, num_stars, mapping_predicate](
                const mr::Record& r, int, mr::MapContext* ctx) {
    MatchMapScratch* s = ctx->TaskState<MatchMapScratch>();
    if (!ViewMatch(r, star_filter.get(), num_stars, &s->text, &s->stars) ||
        !slots->Load(s->stars.data(), &s->values)) {
      return;
    }
    // skip_unbound=false: a star the match did not fill (never the case
    // for all-primary patterns) or an absent optional property stays NULL
    // in the row, matching the relational NULL convention downstream.
    slots->Expand(0, s->values, /*skip_unbound=*/false, &s->exp);
    uint64_t emitted = 0;
    for (size_t row = 0; row < s->exp.num_rows; ++row) {
      const rdf::TermId* mapping = s->exp.row(row);
      if (mapping_predicate) {
        s->row_buf.assign(mapping, mapping + s->exp.width);
        if (!mapping_predicate(s->row_buf)) continue;
      }
      s->val_buf.clear();
      AppendRow(&s->val_buf, mapping, s->exp.width);
      ctx->Emit("", s->val_buf);
      ++emitted;
    }
    // The triplegroup is the NTGA engines' native factorized form: this
    // expansion is the decompress boundary, so each group that produced
    // rows books itself against the flat rows it stood for.
    if (emitted > 0) ctx->NoteFactorizedGroup(emitted);
  };
  RAPIDA_ASSIGN_OR_RETURN(mr::JobStats stats, cluster_->Run(job));
  (void)stats;
  return TableRef{out_file, columns};
}

StatusOr<analytics::BindingTable> NtgaExec::FinalJoinProject(
    std::vector<analytics::BindingTable> agg_tables,
    const std::vector<sparql::SelectItem>& items,
    const std::vector<std::string>& agg_files, const std::string& label) {
  rdf::Dictionary* dict = &dataset_->dict();
  ProjectedResult projected =
      JoinAndProject(std::move(agg_tables), items, dict);

  // One map-only cycle: scan the aggregated outputs, emit the joined
  // projection once.
  mr::JobConfig job;
  job.name = label + ":finaljoin (map-only)";
  std::set<std::string> distinct_inputs(agg_files.begin(), agg_files.end());
  job.inputs.assign(distinct_inputs.begin(), distinct_inputs.end());
  std::string out_file = NextTmp(label + ":result");
  job.output = out_file;
  auto rows = std::make_shared<std::vector<std::string>>(projected.rows);
  // Exactly one of the (possibly concurrent) mappers emits the rows.
  auto emitted = std::make_shared<std::atomic<bool>>(false);
  job.map = [](const mr::Record&, int, mr::MapContext*) {};
  job.map_finish = [rows, emitted](mr::MapContext* ctx) {
    if (emitted->exchange(true)) return;
    for (const std::string& r : *rows) ctx->Emit("", r);
  };
  RAPIDA_ASSIGN_OR_RETURN(mr::JobStats stats, cluster_->Run(job));
  (void)stats;

  analytics::BindingTable result(projected.columns);
  for (const std::string& r : projected.rows) {
    std::vector<rdf::TermId> row = DecodeRow(r);
    row.resize(projected.columns.size(), rdf::kInvalidTermId);
    result.AddRow(std::move(row));
  }
  return result;
}

}  // namespace rapida::engine
