#ifndef RAPIDA_RDF_DICTIONARY_H_
#define RAPIDA_RDF_DICTIONARY_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "rdf/term.h"

namespace rapida::rdf {

/// Bidirectional term <-> id mapping. All triples in a Graph reference terms
/// through TermIds; joins and grouping compare 32-bit ids instead of
/// strings.
///
/// Thread-safe, with lock-free reads: Get, AsNumber and size take no lock,
/// so the aggregation inner loops never write a shared cache line. Terms
/// live in an append-only segmented store whose entries never move; an
/// intern constructs its entry and then publishes the new count with a
/// release store, which readers load with acquire before touching any id
/// up to it. Interning (and the term -> id index behind Lookup) takes the
/// mutex — exclusive for appends, shared for probes — so concurrent
/// queries served off one shared dataset may intern computed values
/// (aggregation finalizers) while other queries read. Ids are dense,
/// assigned one at a time under the exclusive lock, and append-only — a
/// term, once interned, never moves or disappears — which is what lets
/// the reference Get returns, and cached result tables (service layer),
/// stay valid across unrelated interning.
class Dictionary {
 public:
  Dictionary() = default;
  ~Dictionary();

  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;
  Dictionary(Dictionary&& other) noexcept;
  Dictionary& operator=(Dictionary&& other) noexcept;

  /// Returns the id of `term`, interning it if new. Ids are dense and
  /// start at 1 (0 is kInvalidTermId). Probing an already-interned term
  /// allocates nothing.
  TermId Intern(const Term& term);

  /// Convenience interners.
  TermId InternIri(std::string_view iri);
  TermId InternLiteral(std::string_view value, std::string_view datatype = {});
  TermId InternInt(int64_t value);
  TermId InternDouble(double value);

  /// Returns the id of `term`, or kInvalidTermId if not present.
  TermId Lookup(const Term& term) const;
  TermId LookupIri(std::string_view iri) const;

  /// Term for a valid id. Id must be in [1, size()]. The reference stays
  /// valid for the dictionary's lifetime.
  const Term& Get(TermId id) const;

  /// Number of interned terms.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Parses the literal at `id` as a number. Returns nullopt for IRIs,
  /// blanks, and non-numeric literals.
  std::optional<double> AsNumber(TermId id) const;

 private:
  /// Numeric value of a term, parsed once at intern time so AsNumber — hot
  /// in every aggregation inner loop — is a cached lookup, not a re-parse.
  struct NumValue {
    double value = 0;
    bool is_number = false;
  };
  struct Entry {
    Term term;
    NumValue num;
  };

  /// Segment k holds 2^(kFirstSegmentBits + k) entries, so 23 segments
  /// cover every id up to 2^32 - 1 and id -> slot is a bit-width.
  static constexpr int kFirstSegmentBits = 10;
  static constexpr size_t kNumSegments = 23;
  /// Segment of the entry at `index` (= id - 1); its slot in `*offset`.
  static size_t Locate(uint32_t index, size_t* offset);
  /// Slots in segment k (the last one stops at id 2^32 - 1).
  static size_t SegmentCapacity(size_t k);

  /// The index key of a term, built in a per-thread buffer.
  static const std::string& KeyOf(TermKind kind, std::string_view text,
                                  std::string_view datatype);
  static NumValue ParseNumValue(const Term& term);

  /// Id of the term `key` names, or kInvalidTermId (shared lock).
  TermId Find(const std::string& key) const;
  /// Interns the term `key` names; `make` builds the Term only on a miss.
  template <typename MakeTerm>
  TermId InternKey(const std::string& key, MakeTerm&& make);
  /// Entry of an id in [1, size()].
  const Entry& At(TermId id) const;
  /// Destroys every entry and frees the segments.
  void Release();

  mutable std::shared_mutex mu_;  // guards index_ and appends
  std::array<Entry*, kNumSegments> segments_{};
  std::atomic<uint32_t> size_{0};
  std::unordered_map<std::string, TermId> index_;
};

}  // namespace rapida::rdf

#endif  // RAPIDA_RDF_DICTIONARY_H_
