#include "ntga/triplegroup.h"

#include <cstdio>
#include <cstring>

#include "mapreduce/kernels.h"
#include "util/string_util.h"

namespace rapida::ntga {

namespace {

DataPropKey KeyOfTriple(const rdf::Triple& t, rdf::TermId type_id) {
  DataPropKey key;
  key.property = t.p;
  if (t.p == type_id) key.type_object = t.o;
  return key;
}

}  // namespace

std::set<DataPropKey> TripleGroup::Props(rdf::TermId type_id) const {
  std::set<DataPropKey> out;
  for (const rdf::Triple& t : triples) out.insert(KeyOfTriple(t, type_id));
  return out;
}

std::vector<rdf::TermId> TripleGroup::ObjectsOf(const DataPropKey& key,
                                                rdf::TermId type_id) const {
  std::vector<rdf::TermId> out;
  ObjectsOfInto(key, type_id, &out);
  return out;
}

void TripleGroup::ObjectsOfInto(const DataPropKey& key, rdf::TermId type_id,
                                std::vector<rdf::TermId>* out) const {
  for (const rdf::Triple& t : triples) {
    if (KeyOfTriple(t, type_id) == key) out->push_back(t.o);
  }
}

bool TripleGroup::HasProp(const DataPropKey& key, rdf::TermId type_id,
                          rdf::TermId required_object) const {
  for (const rdf::Triple& t : triples) {
    if (KeyOfTriple(t, type_id) == key &&
        (required_object == rdf::kInvalidTermId || t.o == required_object)) {
      return true;
    }
  }
  return false;
}

void SerializeTripleGroupTo(const TripleGroup& tg, std::string* out) {
  mr::kernels::AppendDecimal(out, tg.subject);
  for (const rdf::Triple& t : tg.triples) {
    *out += ';';
    mr::kernels::AppendDecimal(out, t.p);
    *out += ',';
    mr::kernels::AppendDecimal(out, t.o);
  }
}

std::string SerializeTripleGroup(const TripleGroup& tg) {
  std::string out;
  SerializeTripleGroupTo(tg, &out);
  return out;
}

Status ParseTripleGroupInto(std::string_view data, TripleGroup* out) {
  out->subject = rdf::kInvalidTermId;
  out->triples.clear();
  FieldTokenizer fields(data, ';');
  std::string_view part;
  fields.Next(&part);  // always yields at least the (possibly empty) subject
  int64_t subj = 0;
  if (!ParseDigits(part, &subj)) {
    return Status::ParseError("bad triplegroup subject: " +
                              std::string(data));
  }
  out->subject = static_cast<rdf::TermId>(subj);
  while (fields.Next(&part)) {
    size_t comma = part.find(',');
    if (comma == std::string_view::npos) {
      return Status::ParseError("bad triplegroup triple: " +
                                std::string(part));
    }
    int64_t p = 0, o = 0;
    if (!ParseDigits(part.substr(0, comma), &p) ||
        !ParseDigits(part.substr(comma + 1), &o)) {
      return Status::ParseError("bad triplegroup triple: " +
                                std::string(part));
    }
    out->triples.push_back(rdf::Triple{out->subject,
                                       static_cast<rdf::TermId>(p),
                                       static_cast<rdf::TermId>(o)});
  }
  return Status::OK();
}

StatusOr<TripleGroup> ParseTripleGroup(std::string_view data) {
  TripleGroup tg;
  RAPIDA_RETURN_IF_ERROR(ParseTripleGroupInto(data, &tg));
  return tg;
}

void SerializeNestedTo(const NestedTripleGroup& ntg, std::string* out) {
  size_t start = out->size();
  for (size_t i = 0; i < ntg.stars.size(); ++i) {
    if (ntg.stars[i].subject == rdf::kInvalidTermId) continue;
    if (out->size() > start) *out += '#';
    mr::kernels::AppendDecimal(out, i);
    *out += ':';
    SerializeTripleGroupTo(ntg.stars[i], out);
  }
}

std::string SerializeNested(const NestedTripleGroup& ntg) {
  std::string out;
  SerializeNestedTo(ntg, &out);
  return out;
}

Status ParseNestedInto(std::string_view data, int num_stars,
                       NestedTripleGroup* out) {
  // Reset in place: keep each star's triples capacity across records.
  out->stars.resize(num_stars);
  for (TripleGroup& star : out->stars) {
    star.subject = rdf::kInvalidTermId;
    star.triples.clear();
  }
  if (data.empty()) return Status::OK();
  FieldTokenizer parts(data, '#');
  std::string_view part;
  while (parts.Next(&part)) {
    size_t colon = part.find(':');
    if (colon == std::string_view::npos) {
      return Status::ParseError("bad nested triplegroup part: " +
                                std::string(part));
    }
    int64_t star = 0;
    if (!ParseInt64(part.substr(0, colon), &star) || star < 0 ||
        star >= num_stars) {
      return Status::ParseError("bad star index in: " + std::string(part));
    }
    RAPIDA_RETURN_IF_ERROR(
        ParseTripleGroupInto(part.substr(colon + 1), &out->stars[star]));
  }
  return Status::OK();
}

StatusOr<NestedTripleGroup> ParseNested(std::string_view data,
                                        int num_stars) {
  NestedTripleGroup ntg;
  RAPIDA_RETURN_IF_ERROR(ParseNestedInto(data, num_stars, &ntg));
  return ntg;
}

bool ViewNested(std::string_view data, int num_stars,
                std::string_view* stars) {
  for (int s = 0; s < num_stars; ++s) stars[s] = std::string_view();
  const char* p = data.data();
  const char* end = p + data.size();
  int64_t prev = -1;
  while (p != end) {
    if (prev >= 0 && *p++ != '#') return false;
    rdf::TermId star = 0;
    if (!ReadCanonicalId(&p, end, &star) || star <= prev ||
        star >= static_cast<uint64_t>(num_stars) || p == end || *p++ != ':') {
      return false;
    }
    const char* tg_end = static_cast<const char*>(
        std::memchr(p, '#', static_cast<size_t>(end - p)));
    if (tg_end == nullptr) tg_end = end;
    std::string_view tg(p, static_cast<size_t>(tg_end - p));
    rdf::TermId subject = rdf::kInvalidTermId;
    if (!ForEachTripleText(tg, &subject, [](rdf::TermId, rdf::TermId,
                                            std::string_view) {}) ||
        subject == rdf::kInvalidTermId) {
      return false;
    }
    stars[star] = tg;
    prev = star;
    p = tg_end;
  }
  return true;
}

bool SplitNested(std::string_view data, int num_stars,
                 std::string_view* stars) {
  for (int s = 0; s < num_stars; ++s) stars[s] = std::string_view();
  const char* p = data.data();
  const char* end = p + data.size();
  while (p != end) {
    rdf::TermId star = 0;
    if (!ReadCanonicalId(&p, end, &star) ||
        star >= static_cast<uint64_t>(num_stars) || p == end || *p++ != ':') {
      return false;
    }
    const char* tg_end = static_cast<const char*>(
        std::memchr(p, '#', static_cast<size_t>(end - p)));
    if (tg_end == nullptr) tg_end = end;
    stars[star] = std::string_view(p, static_cast<size_t>(tg_end - p));
    p = tg_end == end ? end : tg_end + 1;
  }
  return true;
}

bool ViewNestedCanonical(std::string_view data, int num_stars,
                         std::string* canon, std::string_view* bytes,
                         std::string_view* stars) {
  if (ViewNested(data, num_stars, stars)) {
    *bytes = data;
    return true;
  }
  NestedTripleGroup ntg;
  if (!ParseNestedInto(data, num_stars, &ntg).ok()) return false;
  canon->clear();
  SerializeNestedTo(ntg, canon);
  *bytes = *canon;
  return ViewNested(*canon, num_stars, stars);
}

void SpliceNestedTo(const std::string_view* left, const std::string_view* right,
                    int num_stars, std::string* out) {
  size_t start = out->size();
  for (int s = 0; s < num_stars; ++s) {
    std::string_view tg = right[s].empty() ? left[s] : right[s];
    if (tg.empty()) continue;
    if (out->size() > start) *out += '#';
    mr::kernels::AppendDecimal(out, static_cast<uint64_t>(s));
    *out += ':';
    out->append(tg);
  }
}

}  // namespace rapida::ntga
