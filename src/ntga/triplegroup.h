#ifndef RAPIDA_NTGA_TRIPLEGROUP_H_
#define RAPIDA_NTGA_TRIPLEGROUP_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "ntga/prop_key.h"
#include "rdf/dictionary.h"
#include "rdf/triple.h"
#include "util/statusor.h"

namespace rapida::ntga {

/// Data-level property identity: a property id, plus the type object id
/// when the property is rdf:type (mirrors PropKey at the string level).
struct DataPropKey {
  rdf::TermId property = rdf::kInvalidTermId;
  rdf::TermId type_object = rdf::kInvalidTermId;

  bool is_type() const { return type_object != rdf::kInvalidTermId; }

  friend bool operator==(const DataPropKey& a, const DataPropKey& b) {
    return a.property == b.property && a.type_object == b.type_object;
  }
  friend bool operator<(const DataPropKey& a, const DataPropKey& b) {
    if (a.property != b.property) return a.property < b.property;
    return a.type_object < b.type_object;
  }
};

/// A triplegroup tg: triples sharing one subject (the NTGA unit of data).
struct TripleGroup {
  rdf::TermId subject = rdf::kInvalidTermId;
  std::vector<rdf::Triple> triples;

  /// props(tg): the set of DataPropKeys of the member triples.
  /// `type_id` is the dictionary id of rdf:type (kInvalidTermId if the
  /// graph has no type triples).
  std::set<DataPropKey> Props(rdf::TermId type_id) const;

  /// All objects of triples with the given property key (for a type key,
  /// the type object itself when present).
  std::vector<rdf::TermId> ObjectsOf(const DataPropKey& key,
                                     rdf::TermId type_id) const;

  /// Appends the same objects to `out` without allocating a fresh vector
  /// (callers clear; the hot expansion loops reuse one scratch vector).
  void ObjectsOfInto(const DataPropKey& key, rdf::TermId type_id,
                     std::vector<rdf::TermId>* out) const;

  /// True if a triple with this key exists (and, if `required_object` is
  /// valid, with that exact object).
  bool HasProp(const DataPropKey& key, rdf::TermId type_id,
               rdf::TermId required_object = rdf::kInvalidTermId) const;

  friend bool operator==(const TripleGroup& a, const TripleGroup& b) {
    return a.subject == b.subject && a.triples == b.triples;
  }
};

/// A match of a (composite) graph pattern: one triplegroup per star,
/// indexed by star position. Unfilled stars have subject == kInvalidTermId.
/// This is NTGA's "nested" representation — the join result holds the
/// joined groups side by side instead of flattening into wide tuples.
struct NestedTripleGroup {
  std::vector<TripleGroup> stars;

  bool IsFilled(int star) const {
    return star >= 0 && star < static_cast<int>(stars.size()) &&
           stars[star].subject != rdf::kInvalidTermId;
  }

  friend bool operator==(const NestedTripleGroup& a,
                         const NestedTripleGroup& b) {
    return a.stars == b.stars;
  }
};

/// Serialization for MapReduce records. Format (all ids decimal):
///   TripleGroup:        "subj;p,o;p,o;..."
///   NestedTripleGroup:  "star:subj;p,o;...#star:subj;..."  (filled stars)
///
/// The serializers write one canonical form, which the text-level
/// operators below rely on to work on the bytes without a parse/serialize
/// round trip:
///   * every id is AppendDecimal output: digits only, no sign, no leading
///     zero, at most a TermId;
///   * triples keep their order, so a kept triple's ";p,o" bytes equal its
///     re-serialization;
///   * a nested group lists its filled stars in ascending star index, each
///     at most once, and leaves unfilled stars (subject 0) out.
/// Hence the "star:tg" part of a filled star is the same bytes in every
/// nested group that holds it, and concatenating such parts in ascending
/// star order yields exactly what SerializeNested writes for the merge.
std::string SerializeTripleGroup(const TripleGroup& tg);
StatusOr<TripleGroup> ParseTripleGroup(std::string_view data);

std::string SerializeNested(const NestedTripleGroup& ntg);
StatusOr<NestedTripleGroup> ParseNested(std::string_view data,
                                        int num_stars);

/// Scratch-reusing variants for the operator kernels: the *To serializers
/// append to `out` (same bytes as their std::string counterparts), the
/// *Into parsers overwrite `out` in place, reusing its vector/string
/// capacity so per-record parse loops stop allocating once warm.
void SerializeTripleGroupTo(const TripleGroup& tg, std::string* out);
Status ParseTripleGroupInto(std::string_view data, TripleGroup* out);

void SerializeNestedTo(const NestedTripleGroup& ntg, std::string* out);
Status ParseNestedInto(std::string_view data, int num_stars,
                       NestedTripleGroup* out);

// ---------------------------------------------------------------------------
// Text-level access to the canonical form (no TripleGroup is built).
// ---------------------------------------------------------------------------

/// Reads one canonical id (see the format comment) from the front of
/// [*pos, end), stopping at the first non-digit. Returns false, with *pos
/// unspecified, when the digits there are not canonical.
inline bool ReadCanonicalId(const char** pos, const char* end,
                            rdf::TermId* out) {
  const char* start = *pos;
  const char* p = start;
  uint64_t v = 0;
  while (p != end && static_cast<unsigned>(*p - '0') <= 9) {
    if (p - start == 10) return false;  // longer than any 32-bit id
    v = v * 10 + static_cast<unsigned>(*p - '0');
    ++p;
  }
  if (p == start || (*start == '0' && p - start > 1) || v > 0xffffffffull) {
    return false;
  }
  *pos = p;
  *out = static_cast<rdf::TermId>(v);
  return true;
}

/// Walks a triplegroup in canonical text form: stores its subject, then
/// calls fn(p, o, segment) for each triple in order, where `segment` is the
/// triple's ";p,o" bytes. Returns false as soon as the text is not
/// canonical (fn may already have run for the triples before that point).
template <typename Fn>
bool ForEachTripleText(std::string_view tg, rdf::TermId* subject, Fn&& fn) {
  const char* p = tg.data();
  const char* end = p + tg.size();
  if (!ReadCanonicalId(&p, end, subject)) return false;
  while (p != end) {
    const char* seg = p;
    rdf::TermId prop = 0, obj = 0;
    if (*p++ != ';' || !ReadCanonicalId(&p, end, &prop) || p == end ||
        *p++ != ',' || !ReadCanonicalId(&p, end, &obj) ||
        (p != end && *p != ';')) {
      return false;
    }
    fn(prop, obj, std::string_view(seg, static_cast<size_t>(p - seg)));
  }
  return true;
}

/// Fills stars[0..num_stars) with the bytes of each star of a canonical
/// serialized nested group: the "subj;p,o;..." text of a filled star,
/// empty for an unfilled one. The views point into `data`. Returns false
/// when `data` is not canonical; ParseNested may still accept it (leading
/// zeros, stars out of order or repeated, subject 0).
bool ViewNested(std::string_view data, int num_stars, std::string_view* stars);

/// ViewNested without the canonical check, for bytes that are canonical by
/// construction (an α-join reduce reading its own map's output): splits on
/// the star separators only. Memory-safe on any input; returns false when
/// the star framing is malformed.
bool SplitNested(std::string_view data, int num_stars, std::string_view* stars);

/// ViewNested for any input ParseNested accepts: a non-canonical `data` is
/// rewritten as SerializeNested(ParseNested(data)) into `*canon` and viewed
/// there. `*bytes` receives the canonical bytes that were viewed. Returns
/// false only when `data` does not parse.
bool ViewNestedCanonical(std::string_view data, int num_stars,
                         std::string* canon, std::string_view* bytes,
                         std::string_view* stars);

/// The α-join merge on text: appends the nested group whose star s is
/// right[s] when that is filled and left[s] otherwise, byte-identical to
/// SerializeNested of the merged NestedTripleGroup.
void SpliceNestedTo(const std::string_view* left, const std::string_view* right,
                    int num_stars, std::string* out);

}  // namespace rapida::ntga

#endif  // RAPIDA_NTGA_TRIPLEGROUP_H_
