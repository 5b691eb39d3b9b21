#include "engines/partial_agg.h"

#include "engines/relational_ops.h"
#include "util/string_util.h"

namespace rapida::engine {

using analytics::Aggregator;

void AggColumns::Add(sparql::AggFunc func, bool count_star,
                     const std::string& separator, int pos) {
  fresh_.emplace_back(func, /*distinct=*/false, separator);
  count_star_.push_back(count_star);
  pos_.push_back(pos);
}

void AggColumns::AddCells(const rdf::TermId* cells, Aggregator* row,
                          const rdf::Dictionary& dict) const {
  for (size_t a = 0; a < fresh_.size(); ++a) {
    if (count_star_[a]) {
      row[a].AddRow();
    } else {
      row[a].AddTerm(pos_[a] < 0 ? rdf::kInvalidTermId : cells[pos_[a]],
                     dict);
    }
  }
}

void AggColumns::AppendRaw(const rdf::TermId* cells, std::string* out) const {
  out->append("R|");
  for (size_t a = 0; a < pos_.size(); ++a) {
    if (a > 0) out->push_back(',');
    mr::kernels::AppendDecimal(
        out, pos_[a] < 0 ? rdf::kInvalidTermId : cells[pos_[a]]);
  }
}

void AggColumns::Fold(const mr::ValueSpan& values,
                      const rdf::Dictionary& dict,
                      AggReduceScratch* s) const {
  if (s->row_of != this) {
    s->row = fresh_;
    s->row_of = this;
  } else {
    for (Aggregator& a : s->row) a.Reset();
  }
  for (std::string_view v : values) {
    if (v.empty()) continue;
    if (v[0] == 'P') {
      FieldTokenizer parts(v, '|');
      std::string_view part;
      parts.Next(&part);  // the "P" marker
      for (size_t a = 0; a < s->row.size() && parts.Next(&part); ++a) {
        (void)s->row[a].MergePartial(part, dict);
      }
    } else if (v[0] == 'R') {
      DecodeRowInto(v.substr(2), &s->args);
      for (size_t a = 0; a < s->row.size(); ++a) {
        if (count_star_[a]) {
          s->row[a].AddRow();
        } else if (a < s->args.size()) {
          s->row[a].AddTerm(s->args[a], dict);
        }
      }
    }
  }
}

std::string_view PartialAggTable::Key(size_t id) const {
  const size_t begin = id == 0 ? 0 : key_end_[id - 1];
  return std::string_view(keys_).substr(begin, key_end_[id] - begin);
}

Aggregator* PartialAggTable::Row(std::string_view key,
                                 const AggColumns& cols) {
  auto [id, inserted] = index_.FindOrInsert(
      mr::HashKey(key), static_cast<uint32_t>(key_end_.size()),
      [&](uint32_t cand) { return Key(cand) == key; });
  if (inserted) {
    keys_.append(key);
    key_end_.push_back(keys_.size());
    aggs_.insert(aggs_.end(), cols.fresh().begin(), cols.fresh().end());
    row_end_.push_back(aggs_.size());
  }
  return aggs_.data() + (id == 0 ? 0 : row_end_[id - 1]);
}

void PartialAggTable::Flush(mr::MapContext* ctx, std::string* buf) const {
  for (size_t id = 0; id < key_end_.size(); ++id) {
    buf->clear();
    buf->push_back('P');
    for (size_t a = id == 0 ? 0 : row_end_[id - 1]; a < row_end_[id]; ++a) {
      buf->push_back('|');
      aggs_[a].AppendPartial(buf);
    }
    ctx->Emit(Key(id), *buf);
  }
}

}  // namespace rapida::engine
