#include "engines/relational_ops.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "analytics/aggregates.h"
#include "analytics/value.h"
#include "engines/partial_agg.h"
#include "mapreduce/kernels.h"
#include "sparql/expr_eval.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace rapida::engine {

using analytics::Aggregator;

void AppendRow(std::string* out, const rdf::TermId* row, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) *out += ',';
    mr::kernels::AppendDecimal(out, row[i]);
  }
}

void AppendRow(std::string* out, const std::vector<rdf::TermId>& row) {
  AppendRow(out, row.data(), row.size());
}

void DecodeRowInto(std::string_view data, std::vector<rdf::TermId>* out) {
  out->clear();
  if (data.empty()) return;
  size_t start = 0;
  while (true) {
    size_t pos = data.find(',', start);
    std::string_view part = data.substr(
        start, pos == std::string_view::npos ? std::string_view::npos
                                             : pos - start);
    int64_t v = 0;
    ParseDigits(part, &v);
    out->push_back(static_cast<rdf::TermId>(v));
    if (pos == std::string_view::npos) break;
    start = pos + 1;
  }
}

std::string EncodeRow(const std::vector<rdf::TermId>& row) {
  std::string out;
  AppendRow(&out, row);
  return out;
}

std::vector<rdf::TermId> DecodeRow(std::string_view data) {
  std::vector<rdf::TermId> out;
  DecodeRowInto(data, &out);
  return out;
}

int TableRef::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return static_cast<int>(i);
  }
  return -1;
}

RowPredicate CompilePredicate(
    const std::vector<const sparql::Expr*>& filters,
    const std::vector<std::string>& columns, const rdf::Dictionary* dict) {
  if (filters.empty()) return nullptr;
  std::vector<sparql::ExprPtr> cloned;
  cloned.reserve(filters.size());
  for (const sparql::Expr* f : filters) cloned.push_back(f->Clone());
  auto shared =
      std::make_shared<std::vector<sparql::ExprPtr>>(std::move(cloned));
  std::vector<std::string> cols = columns;
  return [shared, cols, dict](const std::vector<rdf::TermId>& row) {
    auto resolve = [&cols, &row](const std::string& v) -> rdf::TermId {
      for (size_t i = 0; i < cols.size(); ++i) {
        if (cols[i] == v) return i < row.size() ? row[i] : rdf::kInvalidTermId;
      }
      return rdf::kInvalidTermId;
    };
    for (const sparql::ExprPtr& f : *shared) {
      if (!sparql::EffectiveBool(sparql::EvaluateExpr(*f, resolve, *dict))) {
        return false;
      }
    }
    return true;
  };
}

RelationalOps::RelationalOps(mr::Cluster* cluster, Dataset* dataset,
                             const EngineOptions& options,
                             std::string tmp_prefix)
    : cluster_(cluster),
      dataset_(dataset),
      options_(options),
      tmp_prefix_(std::move(tmp_prefix)) {}

std::string RelationalOps::NextTmp(const std::string& hint) {
  std::string name =
      tmp_prefix_ + ":" + std::to_string(counter_++) + ":" + hint;
  temp_files_.push_back(name);
  return name;
}

void RelationalOps::Cleanup() {
  for (const std::string& f : temp_files_) {
    if (dataset_->dfs().Exists(f)) {
      (void)dataset_->dfs().Delete(f);
    }
  }
  temp_files_.clear();
}

namespace {

/// Decodes an input record according to its JoinInput layout, reusing
/// `out`'s capacity (the map bodies decode into task scratch).
void DecodeInputRowInto(const JoinInput& input, const mr::Record& r,
                        std::vector<rdf::TermId>* out) {
  if (!input.is_vp) {
    DecodeRowInto(r.value, out);
    return;
  }
  out->clear();
  int64_t s = 0;
  ParseDigits(r.key, &s);
  out->push_back(static_cast<rdf::TermId>(s));
  if (input.columns.size() == 1) return;
  int64_t o = 0;
  ParseDigits(r.value, &o);
  out->push_back(static_cast<rdf::TermId>(o));
}

/// Broadcast side table of the map-join: one flat cell pool plus two CSR
/// layers — rows over cells, and per-distinct-key groups over rows —
/// probed through a HashIndex on the mixed key id. Rows keep file order
/// within each group.
struct BroadcastTable {
  mr::kernels::HashIndex index;
  std::vector<rdf::TermId> keys;    // distinct join key per dense id
  std::vector<uint32_t> group_end;  // CSR: rows of key id g are
                                    //   row_of[group_end[g-1]..group_end[g])
  std::vector<uint32_t> row_of;     // row indices grouped by key id
  std::vector<uint32_t> row_end;    // CSR: cells of row r
  std::vector<rdf::TermId> cells;   // row payloads in arrival order

  uint32_t GroupBegin(uint32_t id) const {
    return id == 0 ? 0 : group_end[id - 1];
  }
  uint32_t RowBegin(uint32_t r) const { return r == 0 ? 0 : row_end[r - 1]; }
  uint32_t Find(rdf::TermId key) const {
    return index.Find(mr::kernels::MixId(key),
                      [&](uint32_t cand) { return keys[cand] == key; });
  }
};

/// Builds the broadcast table of one small join side. A factorized side
/// feeds its decompressed rows, in flat order.
void BuildBroadcast(const JoinInput& input,
                    const std::vector<mr::Record>& records, int key_col,
                    BroadcastTable* t) {
  std::vector<uint32_t> key_id_of_row;
  std::vector<uint32_t> counts;
  auto add = [&](const std::vector<rdf::TermId>& row) {
    if (input.predicate && !input.predicate(row)) return;
    rdf::TermId k = row[key_col];
    auto [id, inserted] = t->index.FindOrInsert(
        mr::kernels::MixId(k), static_cast<uint32_t>(t->keys.size()),
        [&](uint32_t cand) { return t->keys[cand] == k; });
    if (inserted) {
      t->keys.push_back(k);
      counts.push_back(0);
    }
    ++counts[id];
    key_id_of_row.push_back(id);
    t->cells.insert(t->cells.end(), row.begin(), row.end());
    t->row_end.push_back(static_cast<uint32_t>(t->cells.size()));
  };
  std::vector<rdf::TermId> row;
  FlatScratch flat;
  t->index.Reserve(records.size());
  for (const mr::Record& r : records) {
    if (input.factor == nullptr) {
      DecodeInputRowInto(input, r, &row);
      add(row);
    } else if (ParseGroup(r.value, input.factor->factors.size(),
                          &flat.view)) {
      ForEachFlatRow(*input.factor, flat.view, &flat, add);
    }
  }
  // Counting-sort scatter: group rows by key id, file order within a group.
  t->group_end.resize(counts.size());
  uint32_t total = 0;
  for (size_t g = 0; g < counts.size(); ++g) {
    total += counts[g];
    t->group_end[g] = total;
  }
  t->row_of.resize(key_id_of_row.size());
  std::vector<uint32_t> cursor(counts.size());
  for (size_t g = 0; g < counts.size(); ++g) cursor[g] = t->GroupBegin(g);
  for (size_t r = 0; r < key_id_of_row.size(); ++r) {
    t->row_of[cursor[key_id_of_row[r]]++] = static_cast<uint32_t>(r);
  }
}

/// Per-task scratch of the relational operators, kept in TaskState and
/// reused across a map task's records (or a reduce task's key groups): the
/// decoded row, the current/next cross-product buffers (width-strided),
/// the emit buffers, and the flat enumeration of factorized records.
struct RowScratch {
  std::vector<rdf::TermId> row, cur, next, pred_row;
  std::string key_buf, val_buf;
  FlatScratch flat;
};

/// Calls `fn(row)` for each flat row a table record stands for: the
/// decoded row of a flat record (`spec` null), or every enumerated row of
/// a factorized group (none when the group is malformed).
template <typename Fn>
void ForEachRecordRow(const Factorization* spec, std::string_view value,
                      RowScratch* s, Fn&& fn) {
  if (spec == nullptr) {
    DecodeRowInto(value, &s->row);
    fn(s->row);
  } else if (ParseGroup(value, spec->factors.size(), &s->flat.view)) {
    ForEachFlatRow(*spec, s->flat.view, &s->flat, fn);
  }
}

/// Appends the projection of `row` onto `idx` — EncodeRow's bytes for
/// those cells — to `out`.
void AppendProjection(std::string* out, const std::vector<rdf::TermId>& row,
                      const std::vector<int>& idx) {
  for (size_t k = 0; k < idx.size(); ++k) {
    if (k > 0) *out += ',';
    mr::kernels::AppendDecimal(out, row[static_cast<size_t>(idx[k])]);
  }
}

/// Replaces the width-strided rows of `s->cur` with their cross product
/// against `n` rows of one join side, the side's rows innermost: `row(k)`
/// yields row k's cells as a [begin, end) pair, cell c landing at output
/// position `pos[c]`. The fold step of both join strategies.
template <typename RowFn>
void CrossIn(RowScratch* s, size_t width, const std::vector<int>& pos,
             size_t n, RowFn&& row) {
  s->next.clear();
  for (size_t p = 0; p < s->cur.size() / width; ++p) {
    for (size_t k = 0; k < n; ++k) {
      const size_t base = s->next.size();
      s->next.insert(s->next.end(), s->cur.begin() + p * width,
                     s->cur.begin() + (p + 1) * width);
      auto [b, e] = row(k);
      for (size_t c = 0; c < static_cast<size_t>(e - b); ++c) {
        s->next[base + static_cast<size_t>(pos[c])] = b[c];
      }
    }
  }
  s->cur.swap(s->next);
}

/// Emits every width-strided row of `s->cur` that passes `post_predicate`
/// — the tail of both join folds (map-join map, repartition reduce).
template <typename Ctx>
void EmitFoldedRows(RowScratch* s, size_t width,
                    const RowPredicate& post_predicate, Ctx* ctx) {
  for (size_t p = 0; p < s->cur.size() / width; ++p) {
    if (post_predicate) {
      s->pred_row.assign(s->cur.begin() + p * width,
                         s->cur.begin() + (p + 1) * width);
      if (!post_predicate(s->pred_row)) continue;
    }
    s->val_buf.clear();
    AppendRow(&s->val_buf, s->cur.data() + p * width, width);
    ctx->Emit("", s->val_buf);
  }
}

// ---------------------------------------------------------------------------
// Factorized (d-representation) join machinery — see engines/factorized.h
// and DESIGN.md §16. Joins take these branches for factorized inputs and
// for a requested factorized output; over flat inputs with a flat output
// the plans are empty and Join runs the plain relational fold.
// ---------------------------------------------------------------------------

/// Where a column position lives inside a Factorization.
struct CellLoc {
  enum Kind { kUncovered, kBase, kFactor };
  Kind kind = kUncovered;
  int factor = -1;  // index into factors (kFactor only)
  int slot = -1;    // index within base_cols / factors[factor]
};

std::vector<CellLoc> LocateCells(const Factorization& spec) {
  std::vector<CellLoc> loc(static_cast<size_t>(spec.width));
  for (size_t s = 0; s < spec.base_cols.size(); ++s) {
    loc[static_cast<size_t>(spec.base_cols[s])] =
        CellLoc{CellLoc::kBase, -1, static_cast<int>(s)};
  }
  for (size_t f = 0; f < spec.factors.size(); ++f) {
    for (size_t c = 0; c < spec.factors[f].size(); ++c) {
      loc[static_cast<size_t>(spec.factors[f][c])] =
          CellLoc{CellLoc::kFactor, static_cast<int>(f), static_cast<int>(c)};
    }
  }
  return loc;
}

/// Decodes a factor row's cells into `out` (factor-col order), padding
/// missing cells with NULL up to `cols`.
void DecodeFactorRowInto(std::string_view row, size_t cols,
                         std::vector<rdf::TermId>* out) {
  DecodeRowInto(row, out);
  out->resize(cols, rdf::kInvalidTermId);
}

/// The contiguous encoded bytes of factor `f` inside the record value the
/// GroupView was parsed from (row views are slices of one segment).
std::string_view FactorSegment(const GroupView& g, size_t f) {
  size_t b = g.FactorBegin(f);
  size_t e = g.factor_end[f];
  if (b == e) return std::string_view();
  const char* lo = g.rows[b].data();
  const char* hi = g.rows[e - 1].data() + g.rows[e - 1].size();
  return std::string_view(lo, static_cast<size_t>(hi - lo));
}

/// How the fact-mode map handles one join input.
struct FactInputPlan {
  FactorizationPtr spec;     // null: flat side (emits "F" rows)
  /// Layout of the partial groups this side emits ("G" payloads), in the
  /// INPUT table's coordinates. Equal to `spec` when the join column sits
  /// in the base; base extended by the join factor otherwise.
  FactorizationPtr partial;
  int join_factor = -1;  // >= 0: partially decompress this factor
  int join_slot = -1;    // slot in base_cols / cell idx in factors[join_factor]
  bool stream = false;   // decompress in the map (input predicate present)

  bool grouped() const { return spec != nullptr && !stream; }
};

/// Computes each input's fact-mode map plan.
std::vector<FactInputPlan> BuildFactInputPlans(
    const std::vector<JoinInput>& inputs, const std::vector<int>& join_idx) {
  std::vector<FactInputPlan> plans(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].factor == nullptr) continue;
    FactInputPlan& p = plans[i];
    p.spec = inputs[i].factor;
    if (inputs[i].predicate != nullptr) {
      p.stream = true;  // predicates see flat rows: stream-decompress
      continue;
    }
    std::vector<CellLoc> loc = LocateCells(*p.spec);
    const CellLoc jl = loc[static_cast<size_t>(join_idx[i])];
    if (jl.kind == CellLoc::kFactor) {
      p.join_factor = jl.factor;
      p.join_slot = jl.slot;
      auto partial = std::make_shared<Factorization>();
      partial->width = p.spec->width;
      partial->base_cols = p.spec->base_cols;
      const auto& jcols = p.spec->factors[static_cast<size_t>(jl.factor)];
      partial->base_cols.insert(partial->base_cols.end(), jcols.begin(),
                                jcols.end());
      for (size_t f = 0; f < p.spec->factors.size(); ++f) {
        if (static_cast<int>(f) == jl.factor) continue;
        partial->factors.push_back(p.spec->factors[f]);
      }
      p.partial = std::move(partial);
    } else {
      // Join column in the base (or uncovered: every flat row joins NULL).
      p.join_slot = jl.kind == CellLoc::kBase ? jl.slot : -1;
      p.partial = p.spec;
    }
  }
  return plans;
}

/// Everything a join job's closures read — inputs, output layout, fact-mode
/// plans, the map-join's broadcast tables and the factorized output's
/// assembly. Built once per job, shared read-only by every task.
struct JoinSpec {
  std::vector<JoinInput> ins;
  std::vector<std::vector<int>> out_pos;  // per input: column -> output pos
  std::vector<int> join_idx;              // per input: join column
  size_t width = 0;
  int big = 0;  // map-join: the streamed side
  RowPredicate post_predicate;
  std::vector<FactInputPlan> plans;
  std::vector<BroadcastTable> tables;  // map-join: per small side

  /// Factorized output layout; null = the output is flat.
  FactorizationPtr out_spec;
  /// Per input, the columns its factor rows carry: a map-join's small
  /// sides, a repartition join's flat sides.
  std::vector<std::vector<int>> keep;
  /// Repartition join, per grouped side: partial-base slots appended to
  /// the output base.
  std::vector<std::vector<int>> base_keep;
  std::vector<size_t> gsides;  // repartition join: the grouped sides
  std::string null_cells;      // "0,0,...": NullRow's backing bytes

  /// The encoded all-NULL factor row of `k` cells ("0,...,0"; "" for 0).
  std::string_view NullRow(size_t k) const {
    return std::string_view(null_cells).substr(0, k == 0 ? 0 : 2 * k - 1);
  }
};

/// Factorized output of a repartition join: base = [join position] ++ each
/// grouped side's kept partial-base slots; factors = sides in order (flat
/// side -> one factor of its non-join columns; grouped side -> its partial
/// factors). Leaves the output flat when any output position would be
/// claimed twice (the flat fold's overwrite semantics cannot be
/// represented).
void BuildFactOutput(JoinSpec* j) {
  const size_t n = j->ins.size();
  std::vector<std::vector<int>> base_keep(n), keep(n);
  auto spec = std::make_shared<Factorization>();
  spec->width = static_cast<int>(j->width);
  std::vector<bool> covered(j->width, false);
  const int join_out = j->out_pos[0][static_cast<size_t>(j->join_idx[0])];
  covered[static_cast<size_t>(join_out)] = true;
  spec->base_cols.push_back(join_out);
  auto claim = [&covered](int pos) {
    if (covered[static_cast<size_t>(pos)]) return false;
    covered[static_cast<size_t>(pos)] = true;
    return true;
  };
  // Base: join key first, then each grouped side's kept partial-base slots.
  for (size_t i = 0; i < n; ++i) {
    if (!j->plans[i].grouped()) continue;
    const Factorization& partial = *j->plans[i].partial;
    for (size_t s = 0; s < partial.base_cols.size(); ++s) {
      const int in_col = partial.base_cols[s];
      if (in_col == j->join_idx[i]) continue;  // == the key; emitted once
      const int pos = j->out_pos[i][static_cast<size_t>(in_col)];
      if (pos == join_out) continue;  // same column name as the key
      if (!claim(pos)) return;        // conflict: stay flat
      spec->base_cols.push_back(pos);
      base_keep[i].push_back(static_cast<int>(s));
    }
  }
  // Factors: sides in order.
  for (size_t i = 0; i < n; ++i) {
    if (j->plans[i].grouped()) {
      for (const auto& cols : j->plans[i].partial->factors) {
        std::vector<int> f;
        for (int in_col : cols) {
          const int pos = j->out_pos[i][static_cast<size_t>(in_col)];
          if (!claim(pos)) return;
          f.push_back(pos);
        }
        spec->factors.push_back(std::move(f));
      }
      j->gsides.push_back(i);
      continue;
    }
    std::vector<int> f;
    for (size_t c = 0; c < j->ins[i].columns.size(); ++c) {
      if (static_cast<int>(c) == j->join_idx[i]) continue;
      const int pos = j->out_pos[i][c];
      if (pos == join_out) continue;  // duplicate of the key column
      if (!claim(pos)) return;
      f.push_back(pos);
      keep[i].push_back(static_cast<int>(c));
    }
    spec->factors.push_back(std::move(f));
  }
  j->out_spec = std::move(spec);
  j->base_keep = std::move(base_keep);
  j->keep = std::move(keep);
}

/// Factorized output of a map-join: the big side -> base (+ its partial
/// factors when grouped), one factor per small side of its non-join
/// columns. Leaves the output flat on any double-claimed position.
void BuildMapJoinFactOutput(JoinSpec* j) {
  const size_t n = j->ins.size();
  const size_t big = static_cast<size_t>(j->big);
  std::vector<std::vector<int>> keep(n);
  auto spec = std::make_shared<Factorization>();
  spec->width = static_cast<int>(j->width);
  std::vector<bool> covered(j->width, false);
  bool ok = true;
  auto claim = [&](int pos) {
    ok = ok && !covered[static_cast<size_t>(pos)];
    covered[static_cast<size_t>(pos)] = true;
    return pos;
  };
  const std::vector<int>& big_pos = j->out_pos[big];
  if (j->plans[big].grouped()) {
    const Factorization& partial = *j->plans[big].partial;
    for (int c : partial.base_cols) {
      spec->base_cols.push_back(claim(big_pos[static_cast<size_t>(c)]));
    }
    for (const auto& cols : partial.factors) {
      std::vector<int> f;
      for (int c : cols) f.push_back(claim(big_pos[static_cast<size_t>(c)]));
      spec->factors.push_back(std::move(f));
    }
  } else {
    for (int pos : big_pos) spec->base_cols.push_back(claim(pos));
  }
  for (size_t i = 0; i < n; ++i) {
    if (i == big) continue;
    std::vector<int> f;
    for (size_t c = 0; c < j->ins[i].columns.size(); ++c) {
      if (static_cast<int>(c) == j->join_idx[i]) continue;
      f.push_back(claim(j->out_pos[i][c]));
      keep[i].push_back(static_cast<int>(c));
    }
    spec->factors.push_back(std::move(f));
  }
  if (!ok) return;
  j->out_spec = std::move(spec);
  j->keep = std::move(keep);
}

/// Map scratch of the join: besides RowScratch, the group encoder, one
/// factor row's cells, and each small side's probed broadcast group.
struct JoinMapScratch : RowScratch {
  GroupEncoder enc;
  std::vector<rdf::TermId> cells;
  std::vector<uint32_t> match;
};

/// Probes every small side of a map-join for `key`, recording each side's
/// broadcast group in `s->match` (kNotFound: outer miss). False on an
/// inner miss — the big row then produces no output.
bool ProbeSmalls(const JoinSpec& j, rdf::TermId key, JoinMapScratch* s) {
  s->match.assign(j.ins.size(), mr::kernels::HashIndex::kNotFound);
  for (size_t i = 0; i < j.ins.size(); ++i) {
    if (i == static_cast<size_t>(j.big)) continue;
    s->match[i] = j.tables[i].Find(key);
    if (s->match[i] == mr::kernels::HashIndex::kNotFound && !j.ins[i].outer) {
      return false;
    }
  }
  return true;
}

/// Appends one factor per small side to `s->enc`: the matched broadcast
/// rows' kept cells, or one all-NULL row for an outer miss.
void AppendSmallFactors(const JoinSpec& j, JoinMapScratch* s) {
  for (size_t i = 0; i < j.ins.size(); ++i) {
    if (i == static_cast<size_t>(j.big)) continue;
    const std::vector<int>& keep = j.keep[i];
    s->enc.StartFactor();
    const uint32_t id = s->match[i];
    if (id == mr::kernels::HashIndex::kNotFound) {
      s->enc.AddRawFactorRow(j.NullRow(keep.size()));
      continue;
    }
    const BroadcastTable& t = j.tables[i];
    for (uint32_t g = t.GroupBegin(id); g < t.group_end[id]; ++g) {
      const rdf::TermId* row = t.cells.data() + t.RowBegin(t.row_of[g]);
      s->cells.clear();
      for (int c : keep) s->cells.push_back(row[c]);
      s->enc.AddFactorRow(s->cells.data(), s->cells.size());
    }
  }
}

/// Map-join of one flat big-side row: folds every matched small side into
/// flat output rows, or — factorized output — emits one group record.
void MapJoinRow(const JoinSpec& j, const std::vector<rdf::TermId>& row,
                JoinMapScratch* s, mr::MapContext* ctx) {
  const size_t big = static_cast<size_t>(j.big);
  if (!ProbeSmalls(j, row[static_cast<size_t>(j.join_idx[big])], s)) return;
  if (j.out_spec == nullptr) {
    s->cur.assign(j.width, rdf::kInvalidTermId);
    for (size_t c = 0; c < row.size(); ++c) {
      s->cur[static_cast<size_t>(j.out_pos[big][c])] = row[c];
    }
    for (size_t i = 0; i < j.ins.size(); ++i) {
      const uint32_t id = s->match[i];
      if (i == big || id == mr::kernels::HashIndex::kNotFound) continue;
      const BroadcastTable& t = j.tables[i];
      CrossIn(s, j.width, j.out_pos[i], t.group_end[id] - t.GroupBegin(id),
              [&](size_t k) {
                const uint32_t r = t.row_of[t.GroupBegin(id) + k];
                return std::make_pair(t.cells.data() + t.RowBegin(r),
                                      t.cells.data() + t.row_end[r]);
              });
    }
    EmitFoldedRows(s, j.width, j.post_predicate, ctx);
    return;
  }
  s->enc.Start();
  for (rdf::TermId c : row) s->enc.AddBaseCell(c);
  AppendSmallFactors(j, s);
  ctx->Emit("", s->enc.Finish());
  ctx->NoteFactorizedGroup(s->enc.flat_rows());
}

/// Map-join of a grouped big side into a factorized output: the group
/// passes through with one matched factor appended per small side. A join
/// column inside a factor binds one of its rows per emitted group.
void MapJoinGroup(const JoinSpec& j, JoinMapScratch* s,
                  mr::MapContext* ctx) {
  const FactInputPlan& bp = j.plans[static_cast<size_t>(j.big)];
  const GroupView& view = s->flat.view;
  const size_t nf = bp.spec->factors.size();
  auto emit = [&] {
    AppendSmallFactors(j, s);
    ctx->Emit("", s->enc.Finish());
    ctx->NoteFactorizedGroup(s->enc.flat_rows());
  };
  if (bp.join_factor < 0) {
    rdf::TermId key = rdf::kInvalidTermId;
    if (bp.join_slot >= 0) {
      DecodeFactorRowInto(view.base, bp.spec->base_cols.size(), &s->row);
      key = s->row[static_cast<size_t>(bp.join_slot)];
    }
    if (!ProbeSmalls(j, key, s)) return;
    s->enc.Start();
    s->enc.AddRawBase(view.base);
    for (size_t g = 0; g < nf; ++g) {
      s->enc.AddRawFactor(FactorSegment(view, g), view.FactorRows(g));
    }
    emit();
    return;
  }
  const size_t jf = static_cast<size_t>(bp.join_factor);
  for (size_t t = view.FactorBegin(jf); t < view.factor_end[jf]; ++t) {
    DecodeFactorRowInto(view.rows[t], bp.spec->factors[jf].size(), &s->row);
    if (!ProbeSmalls(j, s->row[static_cast<size_t>(bp.join_slot)], s)) {
      continue;
    }
    s->enc.Start();
    s->enc.AddRawBase(view.base);
    for (rdf::TermId c : s->row) s->enc.AddBaseCell(c);
    for (size_t g = 0; g < nf; ++g) {
      if (g == jf) continue;
      s->enc.AddRawFactor(FactorSegment(view, g), view.FactorRows(g));
    }
    emit();
  }
}

/// Repartition map of a grouped side's group record: ships it through the
/// shuffle under its join key as "tag#group". A join column inside a
/// factor is partially decompressed instead — one emission per row of that
/// factor, its cells appended to the base, every other factor staying
/// compressed across the shuffle.
void EmitPartialGroups(const JoinSpec& j, int tag, std::string_view value,
                       JoinMapScratch* s, mr::MapContext* ctx) {
  const FactInputPlan& p = j.plans[static_cast<size_t>(tag)];
  const GroupView& view = s->flat.view;
  auto start_value = [&] {
    s->val_buf.clear();
    mr::kernels::AppendDecimal(&s->val_buf, static_cast<uint64_t>(tag));
    s->val_buf += '#';
  };
  auto emit = [&](rdf::TermId key) {
    s->key_buf.clear();
    mr::kernels::AppendDecimal(&s->key_buf, key);
    ctx->Emit(s->key_buf, s->val_buf);
  };
  if (p.join_factor < 0) {
    // Join column in the base (or uncovered: NULL): the whole group.
    rdf::TermId key = rdf::kInvalidTermId;
    if (p.join_slot >= 0) {
      DecodeFactorRowInto(view.base, p.spec->base_cols.size(), &s->row);
      key = s->row[static_cast<size_t>(p.join_slot)];
    }
    start_value();
    s->val_buf.append(value);
    emit(key);
    return;
  }
  const size_t jf = static_cast<size_t>(p.join_factor);
  for (size_t t = view.FactorBegin(jf); t < view.factor_end[jf]; ++t) {
    DecodeFactorRowInto(view.rows[t], p.spec->factors[jf].size(), &s->row);
    start_value();
    s->val_buf.append(view.base);
    if (!p.spec->base_cols.empty()) s->val_buf += ',';
    AppendRow(&s->val_buf, s->row);
    for (size_t g = 0; g < p.spec->factors.size(); ++g) {
      if (g == jf) continue;
      s->val_buf += '|';
      s->val_buf.append(FactorSegment(view, g));
    }
    emit(s->row[static_cast<size_t>(p.join_slot)]);
  }
}

/// Reduce scratch of the repartition join: each side's rows as one flat
/// cell pool plus CSR row ends. For a factorized output a grouped side's
/// pool holds each partial group's base cells instead, and `segs` its
/// factor segments, entry-major — views into the reduce call's values (or
/// JoinSpec::NullRow), valid for the call.
struct JoinReduceScratch : RowScratch {
  struct Segment {
    std::string_view bytes;
    uint64_t rows;
  };
  std::vector<std::vector<rdf::TermId>> side_cells;
  std::vector<std::vector<uint32_t>> side_end;
  std::vector<std::vector<Segment>> segs;
  std::vector<std::string> flat_seg;  // per flat side: its shared factor
  std::vector<size_t> idx;            // odometer over the grouped sides
  GroupEncoder enc;

  void AddRow(size_t side, const std::vector<rdf::TermId>& row) {
    side_cells[side].insert(side_cells[side].end(), row.begin(), row.end());
    side_end[side].push_back(static_cast<uint32_t>(side_cells[side].size()));
  }
  const rdf::TermId* Row(size_t side, size_t k) const {
    return side_cells[side].data() + (k == 0 ? 0 : side_end[side][k - 1]);
  }
};

/// Sorts one repartition key group's tagged values into per-side pools:
/// flat rows ("tag|row") decode into their side's pool; partial groups
/// ("tag#group") are decompressed into it (`flatten`) or, for a
/// factorized output, kept as base cells plus factor segment views.
void CollectSides(const JoinSpec& j, const mr::ValueSpan& values,
                  bool flatten, JoinReduceScratch* s) {
  const size_t n = j.ins.size();
  s->side_cells.resize(n);
  s->side_end.resize(n);
  s->segs.resize(n);
  for (size_t i = 0; i < n; ++i) {
    s->side_cells[i].clear();
    s->side_end[i].clear();
    s->segs[i].clear();
  }
  for (std::string_view v : values) {
    const size_t bar = v.find_first_of("|#");
    if (bar == std::string_view::npos || bar + 1 >= v.size()) continue;
    int64_t tag = 0;
    ParseInt64(v.substr(0, bar), &tag);
    const size_t side = static_cast<size_t>(tag);
    const std::string_view payload = v.substr(bar + 1);
    const Factorization* partial =
        v[bar] == '|' ? nullptr : j.plans[side].partial.get();
    if (partial == nullptr || flatten) {
      ForEachRecordRow(partial, payload, s,
                       [&](const std::vector<rdf::TermId>& row) {
                         s->AddRow(side, row);
                       });
      continue;
    }
    if (!ParseGroup(payload, partial->factors.size(), &s->flat.view)) continue;
    const GroupView& view = s->flat.view;
    DecodeFactorRowInto(view.base, partial->base_cols.size(), &s->row);
    s->AddRow(side, s->row);
    for (size_t g = 0; g < partial->factors.size(); ++g) {
      s->segs[side].push_back({FactorSegment(view, g), view.FactorRows(g)});
    }
  }
}

/// Factorized-output reduce of one join key: crosses the grouped sides'
/// partial groups (one output group per combination); each flat side
/// contributes one factor shared by every emitted group. An outer side
/// that missed contributes one all-NULL row.
void EmitJoinGroups(const JoinSpec& j, std::string_view key,
                    JoinReduceScratch* s, mr::ReduceContext* ctx) {
  const size_t n = j.ins.size();
  for (size_t i = 0; i < n; ++i) {
    if (!s->side_end[i].empty()) continue;
    if (i == 0 || !j.ins[i].outer) return;  // inner miss
    if (j.plans[i].grouped()) {
      const Factorization& partial = *j.plans[i].partial;
      s->row.assign(partial.base_cols.size(), rdf::kInvalidTermId);
      for (const auto& cols : partial.factors) {
        s->segs[i].push_back({j.NullRow(cols.size()), 1});
      }
    } else {
      s->row.assign(j.ins[i].columns.size(), rdf::kInvalidTermId);
    }
    s->AddRow(i, s->row);
  }
  int64_t kv = 0;
  ParseDigits(key, &kv);
  s->flat_seg.resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (j.plans[i].grouped()) continue;
    std::string& seg = s->flat_seg[i];
    seg.clear();
    for (size_t r = 0; r < s->side_end[i].size(); ++r) {
      if (r > 0) seg += ';';
      const rdf::TermId* row = s->Row(i, r);
      for (size_t k = 0; k < j.keep[i].size(); ++k) {
        if (k > 0) seg += ',';
        mr::kernels::AppendDecimal(&seg, row[j.keep[i][k]]);
      }
    }
  }
  s->idx.assign(j.gsides.size(), 0);
  GroupEncoder& enc = s->enc;
  for (;;) {
    enc.Start();
    enc.AddBaseCell(static_cast<rdf::TermId>(kv));
    for (size_t gi = 0; gi < j.gsides.size(); ++gi) {
      const rdf::TermId* base = s->Row(j.gsides[gi], s->idx[gi]);
      for (int slot : j.base_keep[j.gsides[gi]]) enc.AddBaseCell(base[slot]);
    }
    for (size_t i = 0, gi = 0; i < n; ++i) {
      if (!j.plans[i].grouped()) {
        enc.AddRawFactor(s->flat_seg[i], s->side_end[i].size());
        continue;
      }
      const size_t nf = j.plans[i].partial->factors.size();
      for (size_t g = 0; g < nf; ++g) {
        const JoinReduceScratch::Segment& seg = s->segs[i][s->idx[gi] * nf + g];
        enc.AddRawFactor(seg.bytes, seg.rows);
      }
      ++gi;
    }
    ctx->Emit("", enc.Finish());
    ctx->NoteFactorizedGroup(enc.flat_rows());
    size_t g = j.gsides.size();
    for (;;) {
      if (g == 0) return;
      --g;
      if (++s->idx[g] < s->side_end[j.gsides[g]].size()) break;
      s->idx[g] = 0;
    }
  }
}

}  // namespace

StatusOr<TableRef> RelationalOps::Join(const std::string& name_hint,
                                       const std::vector<JoinInput>& inputs,
                                       RowPredicate post_predicate,
                                       bool factorize_output) {
  RAPIDA_CHECK(!inputs.empty());
  // Output layout: first input's columns, then the unseen columns of each
  // later input. Per input: mapping from its columns to output positions,
  // and the index of its join column.
  auto j = std::make_shared<JoinSpec>();
  j->ins = inputs;
  std::vector<std::string> out_columns = inputs[0].columns;
  j->out_pos.resize(inputs.size());
  j->join_idx.resize(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    j->join_idx[i] = -1;
    for (size_t c = 0; c < inputs[i].columns.size(); ++c) {
      const std::string& name = inputs[i].columns[c];
      if (name == inputs[i].join_column) j->join_idx[i] = static_cast<int>(c);
      auto it = std::find(out_columns.begin(), out_columns.end(), name);
      int pos;
      if (it == out_columns.end()) {
        pos = static_cast<int>(out_columns.size());
        out_columns.push_back(name);
      } else {
        pos = static_cast<int>(it - out_columns.begin());
      }
      j->out_pos[i].push_back(pos);
    }
    if (j->join_idx[i] < 0) {
      return Status::InvalidArgument("join column '" + inputs[i].join_column +
                                     "' not among input columns");
    }
    if (i == 0 && inputs[i].outer) {
      return Status::InvalidArgument("first join input cannot be outer");
    }
  }
  j->width = out_columns.size();
  j->post_predicate = std::move(post_predicate);
  j->plans = BuildFactInputPlans(inputs, j->join_idx);
  j->null_cells = "0";
  for (size_t c = 1; c < j->width; ++c) j->null_cells += ",0";

  // Map-join eligibility: every input but the largest fits the threshold,
  // and the largest is not an outer input. Factorized inputs are sized by
  // their FLAT equivalent so the strategy choice matches the flat path
  // exactly (a factorized file is smaller; deciding on its stored size
  // could flip the join strategy and with it the output row order).
  uint64_t big_bytes = 0;
  std::vector<uint64_t> sizes(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    sizes[i] = inputs[i].flat_bytes != 0 ? inputs[i].flat_bytes
                                         : dataset_->VpFileBytes(inputs[i].file);
    if (sizes[i] > big_bytes) {
      big_bytes = sizes[i];
      j->big = static_cast<int>(i);
    }
  }
  bool map_join = options_.enable_map_joins && inputs.size() > 1;
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (static_cast<int>(i) == j->big) continue;
    if (sizes[i] > options_.map_join_threshold_bytes) map_join = false;
  }
  if (inputs[j->big].outer) map_join = false;
  const bool fact_out = factorize_output && j->post_predicate == nullptr;

  TableRef out;
  out.file = NextTmp(name_hint);
  out.columns = out_columns;

  mr::JobConfig job;
  job.name = name_hint + (map_join ? " (map-join)" : "");
  for (const JoinInput& in : inputs) job.inputs.push_back(in.file);
  job.output = out.file;

  if (map_join) {
    // Map-join: every small side becomes a CSR broadcast table probed
    // through HashIndex (factorized smalls feed their decompressed rows);
    // each big row folds in every small side through width-strided
    // cross-product buffers kept in task scratch — or, for a factorized
    // output, becomes one group record (a grouped big side passes its
    // group through) with one factor per small side.
    j->tables.resize(inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (static_cast<int>(i) == j->big) continue;
      RAPIDA_ASSIGN_OR_RETURN(const mr::Dfs::File* f,
                              dataset_->dfs().Open(inputs[i].file));
      BuildBroadcast(inputs[i], f->records, j->join_idx[i], &j->tables[i]);
    }
    if (fact_out) BuildMapJoinFactOutput(j.get());
    job.map = [j](const mr::Record& r, int tag, mr::MapContext* ctx) {
      if (tag != j->big) return;  // broadcast copies: scanned, not re-emitted
      const JoinInput& input = j->ins[static_cast<size_t>(tag)];
      const FactInputPlan& bp = j->plans[static_cast<size_t>(tag)];
      JoinMapScratch* s = ctx->TaskState<JoinMapScratch>();
      auto join_row = [&](const std::vector<rdf::TermId>& row) {
        if (input.predicate && !input.predicate(row)) return;
        MapJoinRow(*j, row, s, ctx);
      };
      if (bp.spec == nullptr) {
        DecodeInputRowInto(input, r, &s->row);
        join_row(s->row);
        return;
      }
      if (!ParseGroup(r.value, bp.spec->factors.size(), &s->flat.view)) {
        return;
      }
      if (bp.stream || j->out_spec == nullptr) {
        // Stream-decompress the big side (predicate present, or the
        // output is flat anyway).
        ForEachFlatRow(*bp.spec, s->flat.view, &s->flat, join_row);
      } else {
        MapJoinGroup(*j, s, ctx);
      }
    };
  } else {
    // Repartition join: the map tags each row ("tag|row") or partial group
    // ("tag#group") with its side; the reduce keeps each side as a flat
    // CSR pool in per-reduce-task scratch.
    if (fact_out && inputs.size() >= 2) BuildFactOutput(j.get());
    job.map = [j](const mr::Record& r, int tag, mr::MapContext* ctx) {
      const JoinInput& input = j->ins[static_cast<size_t>(tag)];
      const FactInputPlan& p = j->plans[static_cast<size_t>(tag)];
      JoinMapScratch* s = ctx->TaskState<JoinMapScratch>();
      auto emit_row = [&](const std::vector<rdf::TermId>& row) {
        if (input.predicate && !input.predicate(row)) return;
        s->key_buf.clear();
        mr::kernels::AppendDecimal(
            &s->key_buf, row[static_cast<size_t>(j->join_idx[tag])]);
        s->val_buf.clear();
        mr::kernels::AppendDecimal(&s->val_buf, static_cast<uint64_t>(tag));
        s->val_buf += '|';
        AppendRow(&s->val_buf, row);
        ctx->Emit(s->key_buf, s->val_buf);
      };
      if (p.spec == nullptr) {
        DecodeInputRowInto(input, r, &s->row);
        emit_row(s->row);
        return;
      }
      if (!ParseGroup(r.value, p.spec->factors.size(), &s->flat.view)) return;
      if (p.stream) {
        ForEachFlatRow(*p.spec, s->flat.view, &s->flat, emit_row);
      } else {
        EmitPartialGroups(*j, tag, r.value, s, ctx);
      }
    };
    if (j->out_spec != nullptr) {
      job.reduce = [j](std::string_view key, const mr::ValueSpan& values,
                       mr::ReduceContext* ctx) {
        JoinReduceScratch* s = ctx->TaskState<JoinReduceScratch>();
        CollectSides(*j, values, /*flatten=*/false, s);
        EmitJoinGroups(*j, key, s, ctx);
      };
    } else {
      // Flat output: every side decompressed into its pool, then the fold.
      job.reduce = [j](std::string_view /*key*/, const mr::ValueSpan& values,
                       mr::ReduceContext* ctx) {
        JoinReduceScratch* s = ctx->TaskState<JoinReduceScratch>();
        CollectSides(*j, values, /*flatten=*/true, s);
        s->cur.assign(j->width, rdf::kInvalidTermId);
        for (size_t i = 0; i < j->ins.size(); ++i) {
          const std::vector<uint32_t>& ends = s->side_end[i];
          if (ends.empty()) {
            if (!j->ins[i].outer) return;  // inner miss (side 0 included)
            continue;
          }
          CrossIn(s, j->width, j->out_pos[i], ends.size(), [&](size_t k) {
            return std::make_pair(s->Row(i, k), s->Row(i, k + 1));
          });
        }
        EmitFoldedRows(s, j->width, j->post_predicate, ctx);
      };
    }
    // Pure function of (key, values): reducers may run concurrently.
    job.reduce_parallel_safe = true;
  }

  RAPIDA_ASSIGN_OR_RETURN(mr::JobStats ignored, cluster_->Run(job));
  (void)ignored;
  if (j->out_spec != nullptr) {
    out.factor = j->out_spec;
    RAPIDA_ASSIGN_OR_RETURN(out.flat_bytes, FlatStoredBytes(out));
  }
  return out;
}

StatusOr<TableRef> RelationalOps::UnionAll(
    const std::string& name_hint, const std::vector<TableRef>& inputs) {
  RAPIDA_CHECK(!inputs.empty());
  // Unified layout plus, per input, the mapping from its columns to
  // output positions (same scheme as Join's layout).
  std::vector<std::string> out_columns = inputs[0].columns;
  std::vector<std::vector<int>> out_pos(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    for (const std::string& name : inputs[i].columns) {
      auto it = std::find(out_columns.begin(), out_columns.end(), name);
      int pos;
      if (it == out_columns.end()) {
        pos = static_cast<int>(out_columns.size());
        out_columns.push_back(name);
      } else {
        pos = static_cast<int>(it - out_columns.begin());
      }
      out_pos[i].push_back(pos);
    }
  }
  const size_t width = out_columns.size();

  TableRef out;
  out.file = NextTmp(name_hint);
  out.columns = out_columns;

  mr::JobConfig job;
  job.name = name_hint + " (map-only)";
  for (const TableRef& t : inputs) job.inputs.push_back(t.file);
  job.output = out.file;

  // Factorized branches are stream-decompressed: UNION output must be flat
  // (branch layouts differ) and rows enumerate in exact flat order.
  auto factors = std::make_shared<std::vector<FactorizationPtr>>();
  for (const TableRef& t : inputs) factors->push_back(t.factor);
  job.map = [factors, out_pos, width](const mr::Record& r, int tag,
                                      mr::MapContext* ctx) {
    RowScratch* s = ctx->TaskState<RowScratch>();
    const std::vector<int>& pos = out_pos[static_cast<size_t>(tag)];
    ForEachRecordRow((*factors)[static_cast<size_t>(tag)].get(), r.value, s,
                     [&](const std::vector<rdf::TermId>& row) {
                       s->cur.assign(width, rdf::kInvalidTermId);
                       for (size_t c = 0; c < row.size() && c < pos.size();
                            ++c) {
                         s->cur[static_cast<size_t>(pos[c])] = row[c];
                       }
                       s->val_buf.clear();
                       AppendRow(&s->val_buf, s->cur);
                       ctx->Emit("", s->val_buf);
                     });
  };

  RAPIDA_ASSIGN_OR_RETURN(mr::JobStats stats, cluster_->Run(job));
  (void)stats;
  return out;
}

namespace {

/// GroupBy map scratch: the partial-aggregation table, plus, on the
/// weighted path, each factor's decoded cells (row-major) and the odometer
/// over the key-bearing factors.
struct GroupMapScratch : RowScratch {
  PartialAggTable table;
  std::vector<std::vector<rdf::TermId>> factor_cells;
  std::vector<size_t> idx;
};

/// Static plan of the weighted GroupBy over a factorized input: where each
/// column lives, and which factors carry a group key. Key-bearing factors
/// are enumerated (their rows split a group across keys); the others only
/// multiply.
struct WeightedPlan {
  FactorizationPtr spec;
  std::vector<CellLoc> loc;
  std::vector<size_t> efactors;  // key-bearing factors, in factor order
  std::vector<int> digit;        // per factor: odometer digit, -1 = weight
};

}  // namespace

StatusOr<TableRef> RelationalOps::GroupBy(
    const std::string& name_hint, const TableRef& input,
    const std::vector<std::string>& key_columns,
    const std::vector<AggColumn>& aggs, RowPredicate having) {
  std::vector<int> key_idx;
  for (const std::string& k : key_columns) {
    int i = input.ColumnIndex(k);
    if (i < 0) {
      return Status::InvalidArgument("group key column '" + k +
                                     "' not in input");
    }
    key_idx.push_back(i);
  }
  std::vector<int> agg_idx;
  for (const AggColumn& a : aggs) {
    if (a.count_star) {
      agg_idx.push_back(-1);
      continue;
    }
    int i = input.ColumnIndex(a.column);
    if (i < 0) {
      return Status::InvalidArgument("aggregate column '" + a.column +
                                     "' not in input");
    }
    agg_idx.push_back(i);
  }

  TableRef out;
  out.file = NextTmp(name_hint);
  out.columns = key_columns;
  for (const AggColumn& a : aggs) out.columns.push_back(a.output_name);

  rdf::Dictionary* dict = &dataset_->dict();
  auto agg_cols = std::make_shared<AggColumns>();
  for (size_t a = 0; a < aggs.size(); ++a) {
    agg_cols->Add(aggs[a].func, aggs[a].count_star, aggs[a].separator,
                  agg_idx[a]);
  }

  mr::JobConfig job;
  job.name = name_hint;
  job.inputs = {input.file};
  job.output = out.file;

  const bool partial = options_.partial_aggregation;
  bool weighted_safe = partial;
  for (const AggColumn& a : aggs) {
    // Float addition is grouping-sensitive: SUM/AVG pipelines must see the
    // same add order as the flat path, so they are never aggregated by
    // weight (the planner also keeps them flat upstream).
    if (a.func == sparql::AggFunc::kSum || a.func == sparql::AggFunc::kAvg) {
      weighted_safe = false;
    }
  }

  if (input.factorized() && weighted_safe) {
    // Weighted direct path: aggregate group records WITHOUT enumerating
    // their flat rows — the multiplicity of every cell is a product of the
    // other factors' row counts. This is where the factorization factor
    // turns into saved work.
    auto plan = std::make_shared<WeightedPlan>();
    plan->spec = input.factor;
    plan->loc = LocateCells(*input.factor);
    plan->digit.assign(input.factor->factors.size(), -1);
    for (int k : key_idx) {
      const CellLoc& l = plan->loc[static_cast<size_t>(k)];
      if (l.kind == CellLoc::kFactor) plan->digit[l.factor] = 0;
    }
    for (size_t f = 0; f < plan->digit.size(); ++f) {
      if (plan->digit[f] < 0) continue;
      plan->digit[f] = static_cast<int>(plan->efactors.size());
      plan->efactors.push_back(f);
    }
    job.map = [plan, key_idx, agg_idx, agg_cols, dict](
                  const mr::Record& r, int, mr::MapContext* ctx) {
      const Factorization& spec = *plan->spec;
      GroupMapScratch* s = ctx->TaskState<GroupMapScratch>();
      if (!ParseGroup(r.value, spec.factors.size(), &s->flat.view)) return;
      const GroupView& view = s->flat.view;
      const size_t nf = spec.factors.size();
      s->row.assign(static_cast<size_t>(spec.width), rdf::kInvalidTermId);
      DecodeCellsInto(view.base, spec.base_cols, &s->row);
      // Decode every factor's rows into its pool.
      s->factor_cells.resize(nf);
      uint64_t mult = 1;
      for (size_t f = 0; f < nf; ++f) {
        const size_t rows = view.FactorRows(f);
        if (rows == 0) return;  // empty factor: zero flat rows
        std::vector<rdf::TermId>& pool = s->factor_cells[f];
        pool.clear();
        for (size_t t = 0; t < rows; ++t) {
          DecodeFactorRowInto(view.rows[view.FactorBegin(f) + t],
                              spec.factors[f].size(), &s->cur);
          pool.insert(pool.end(), s->cur.begin(), s->cur.end());
        }
        if (plan->digit[f] < 0) mult *= rows;
      }
      s->idx.assign(plan->efactors.size(), 0);
      // A base cell, or the current odometer row's cell of a key factor.
      auto cell_at = [&](int pos) -> rdf::TermId {
        const CellLoc& l = plan->loc[static_cast<size_t>(pos)];
        if (l.kind != CellLoc::kFactor) {
          return s->row[static_cast<size_t>(pos)];  // base cell or NULL
        }
        const size_t f = static_cast<size_t>(l.factor);
        return s->factor_cells[f][s->idx[plan->digit[f]] *
                                      spec.factors[f].size() +
                                  static_cast<size_t>(l.slot)];
      };
      for (;;) {
        s->key_buf.clear();
        for (size_t k = 0; k < key_idx.size(); ++k) {
          if (k > 0) s->key_buf += ',';
          mr::kernels::AppendDecimal(&s->key_buf, cell_at(key_idx[k]));
        }
        Aggregator* agg_list = s->table.Row(s->key_buf, *agg_cols);
        for (size_t a = 0; a < agg_idx.size(); ++a) {
          if (agg_idx[a] < 0) {
            agg_list[a].AddRowWeighted(mult);
            continue;
          }
          const CellLoc& l = plan->loc[static_cast<size_t>(agg_idx[a])];
          if (l.kind == CellLoc::kFactor && plan->digit[l.factor] < 0) {
            // Aggregated column varies within a multiplicity factor: each
            // of its rows appears in mult / rows-of-factor flat rows.
            const size_t f = static_cast<size_t>(l.factor);
            const size_t rows = view.FactorRows(f);
            const size_t cols = spec.factors[f].size();
            for (size_t t = 0; t < rows; ++t) {
              agg_list[a].AddTermWeighted(
                  s->factor_cells[f][t * cols + static_cast<size_t>(l.slot)],
                  *dict, mult / rows);
            }
          } else {
            agg_list[a].AddTermWeighted(cell_at(agg_idx[a]), *dict, mult);
          }
        }
        size_t e = plan->efactors.size();
        for (;;) {
          if (e == 0) return;
          --e;
          if (++s->idx[e] < view.FactorRows(plan->efactors[e])) break;
          s->idx[e] = 0;
        }
      }
    };
  } else {
    // Per flat row (a factorized input is stream-decompressed: raw mode,
    // or an order-sensitive aggregate slipped through): with partial
    // aggregation, map-side pre-aggregation into the scratch table (the
    // relational analogue of Alg. 3's multiAggMap); otherwise one
    // "R|args" record per row, aggregated reduce-side.
    FactorizationPtr spec = input.factor;
    job.map = [spec, key_idx, agg_cols, dict, partial](
                  const mr::Record& r, int, mr::MapContext* ctx) {
      GroupMapScratch* s = ctx->TaskState<GroupMapScratch>();
      ForEachRecordRow(
          spec.get(), r.value, s, [&](const std::vector<rdf::TermId>& row) {
            s->key_buf.clear();
            AppendProjection(&s->key_buf, row, key_idx);
            if (partial) {
              agg_cols->AddCells(row.data(),
                                 s->table.Row(s->key_buf, *agg_cols), *dict);
              return;
            }
            s->val_buf.clear();
            agg_cols->AppendRaw(row.data(), &s->val_buf);
            ctx->Emit(s->key_buf, s->val_buf);
          });
    };
  }
  if (partial) {
    job.map_finish = [](mr::MapContext* ctx) {
      GroupMapScratch* s = ctx->TaskState<GroupMapScratch>();
      s->table.Flush(ctx, &s->val_buf);
    };
  }

  job.reduce = [agg_cols, dict, having](std::string_view key,
                                        const mr::ValueSpan& values,
                                        mr::ReduceContext* ctx) {
    AggReduceScratch* s = ctx->TaskState<AggReduceScratch>();
    agg_cols->Fold(values, *dict, s);
    DecodeRowInto(key, &s->out_row);
    for (Aggregator& a : s->row) s->out_row.push_back(a.Finalize(dict));
    if (having != nullptr && !having(s->out_row)) return;
    s->val_buf.clear();
    AppendRow(&s->val_buf, s->out_row);
    ctx->Emit("", s->val_buf);
  };

  RAPIDA_ASSIGN_OR_RETURN(mr::JobStats stats, cluster_->Run(job));
  (void)stats;

  // GROUP BY ALL over an empty input still produces one default row
  // (SPARQL: COUNT over the empty group is 0). Only when the *input* was
  // empty — an empty output over non-empty input means HAVING filtered
  // the single ALL-group, which must stay filtered.
  if (key_columns.empty()) {
    RAPIDA_ASSIGN_OR_RETURN(const mr::Dfs::File* in_f,
                            dataset_->dfs().Open(input.file));
    RAPIDA_ASSIGN_OR_RETURN(const mr::Dfs::File* f,
                            dataset_->dfs().Open(out.file));
    if (f->records.empty() && in_f->records.empty()) {
      std::vector<rdf::TermId> row;
      for (const AggColumn& a : aggs) {
        Aggregator empty(a.func, false, a.separator);
        row.push_back(empty.Finalize(dict));
      }
      if (having == nullptr || having(row)) {
        mr::RecordBatch batch;
        batch.Add("", EncodeRow(row));
        RAPIDA_RETURN_IF_ERROR(
            dataset_->dfs().Write(out.file, std::move(batch)));
      }
    }
  }
  return out;
}

StatusOr<TableRef> RelationalOps::DistinctProject(
    const std::string& name_hint, const TableRef& input,
    const std::vector<std::string>& columns, RowPredicate keep_predicate) {
  std::vector<int> idx;
  for (const std::string& c : columns) {
    int i = input.ColumnIndex(c);
    if (i < 0) {
      return Status::InvalidArgument("projection column '" + c +
                                     "' not in input");
    }
    idx.push_back(i);
  }
  TableRef out;
  out.file = NextTmp(name_hint);
  out.columns = columns;

  mr::JobConfig job;
  job.name = name_hint;
  job.inputs = {input.file};
  job.output = out.file;
  // Factorized input: stream-decompress group records; the reduce-side
  // dedup makes the enumeration order immaterial (DISTINCT is
  // order-insensitive), which is exactly why the planner may factorize up
  // to this sink.
  FactorizationPtr spec = input.factor;
  job.map = [spec, idx, keep_predicate](const mr::Record& r, int,
                                        mr::MapContext* ctx) {
    RowScratch* s = ctx->TaskState<RowScratch>();
    ForEachRecordRow(spec.get(), r.value, s,
                     [&](const std::vector<rdf::TermId>& row) {
                       if (keep_predicate && !keep_predicate(row)) return;
                       s->key_buf.clear();
                       AppendProjection(&s->key_buf, row, idx);
                       ctx->Emit(s->key_buf, "");
                     });
  };
  // Combiner dedups map-side; reduce emits one row per distinct key.
  job.combine = [](std::string_view key, const mr::ValueSpan&,
                   mr::ReduceContext* ctx) { ctx->Emit(key, ""); };
  job.reduce = [](std::string_view key, const mr::ValueSpan&,
                  mr::ReduceContext* ctx) { ctx->Emit("", key); };
  job.reduce_parallel_safe = true;

  RAPIDA_ASSIGN_OR_RETURN(mr::JobStats stats, cluster_->Run(job));
  (void)stats;
  return out;
}

ProjectedResult JoinAndProject(std::vector<analytics::BindingTable> tables,
                               const std::vector<sparql::SelectItem>& items,
                               rdf::Dictionary* dict) {
  RAPIDA_CHECK(!tables.empty());
  analytics::BindingTable joined = std::move(tables[0]);
  for (size_t i = 1; i < tables.size(); ++i) joined = joined.Join(tables[i]);

  ProjectedResult out;
  for (const sparql::SelectItem& item : items) out.columns.push_back(item.name);
  for (const auto& row : joined.rows()) {
    auto resolve = [&joined, &row](const std::string& v) {
      int i = joined.VarIndex(v);
      return i < 0 ? rdf::kInvalidTermId : row[i];
    };
    std::vector<rdf::TermId> out_row;
    for (const sparql::SelectItem& item : items) {
      if (item.expr == nullptr) {
        out_row.push_back(resolve(item.name));
        continue;
      }
      sparql::EvalValue v = sparql::EvaluateExpr(*item.expr, resolve, *dict);
      switch (v.kind) {
        case sparql::EvalValue::Kind::kNum:
          out_row.push_back(analytics::InternNumber(dict, v.num));
          break;
        case sparql::EvalValue::Kind::kTerm:
          out_row.push_back(v.term != rdf::kInvalidTermId
                                ? v.term
                                : dict->Intern(*v.term_ptr));
          break;
        case sparql::EvalValue::Kind::kBool:
          out_row.push_back(dict->InternLiteral(v.b ? "true" : "false"));
          break;
        default:
          out_row.push_back(rdf::kInvalidTermId);
      }
    }
    out.rows.push_back(EncodeRow(out_row));
  }
  return out;
}

StatusOr<TableRef> RelationalOps::FinalJoinProject(
    const std::string& name_hint, const std::vector<TableRef>& inputs,
    const std::vector<sparql::SelectItem>& items) {
  RAPIDA_CHECK(!inputs.empty());
  rdf::Dictionary* dict = &dataset_->dict();

  // Load every input locally (they are small aggregated tables) and join
  // them with the well-tested BindingTable logic.
  std::vector<analytics::BindingTable> tables;
  for (const TableRef& in : inputs) {
    RAPIDA_ASSIGN_OR_RETURN(analytics::BindingTable t, ReadTable(in));
    tables.push_back(std::move(t));
  }
  ProjectedResult projected = JoinAndProject(std::move(tables), items, dict);
  std::vector<std::string> result_rows = std::move(projected.rows);

  // Model the work as one map-only broadcast-join cycle: the job scans all
  // inputs (honest byte accounting) and one mapper emits the result.
  TableRef out;
  out.file = NextTmp(name_hint);
  out.columns = std::move(projected.columns);

  mr::JobConfig job;
  job.name = name_hint + " (map-only)";
  for (const TableRef& t : inputs) job.inputs.push_back(t.file);
  job.output = out.file;
  auto rows = std::make_shared<std::vector<std::string>>(
      std::move(result_rows));
  // Exactly one of the (possibly concurrent) mappers emits the rows.
  auto emitted = std::make_shared<std::atomic<bool>>(false);
  job.map = [](const mr::Record&, int, mr::MapContext*) {};
  job.map_finish = [rows, emitted](mr::MapContext* ctx) {
    if (emitted->exchange(true)) return;
    for (const std::string& r : *rows) ctx->Emit("", r);
  };
  RAPIDA_ASSIGN_OR_RETURN(mr::JobStats stats, cluster_->Run(job));
  (void)stats;
  return out;
}

StatusOr<analytics::BindingTable> RelationalOps::ReadTable(
    const TableRef& table) {
  RAPIDA_ASSIGN_OR_RETURN(const mr::Dfs::File* f,
                          dataset_->dfs().Open(table.file));
  analytics::BindingTable out(table.columns);
  RowScratch s;
  for (const mr::Record& r : f->records) {
    ForEachRecordRow(table.factor.get(), r.value, &s,
                     [&out, &table](const std::vector<rdf::TermId>& row) {
                       std::vector<rdf::TermId> flat = row;
                       flat.resize(table.columns.size(), rdf::kInvalidTermId);
                       out.AddRow(std::move(flat));
                     });
  }
  return out;
}

StatusOr<uint64_t> RelationalOps::FlatStoredBytes(const TableRef& table) const {
  if (!table.factorized()) return dataset_->VpFileBytes(table.file);
  // Join intermediates are written with default (uncompressed) FileOptions,
  // so the flat equivalent's stored bytes are its raw record bytes.
  RAPIDA_ASSIGN_OR_RETURN(const mr::Dfs::File* f,
                          dataset_->dfs().Open(table.file));
  uint64_t bytes = 0;
  GroupView view;
  for (const mr::Record& r : f->records) {
    if (!ParseGroup(r.value, table.factor->factors.size(), &view)) continue;
    bytes += FlatRecordBytes(*table.factor, view);
  }
  return bytes;
}

}  // namespace rapida::engine
