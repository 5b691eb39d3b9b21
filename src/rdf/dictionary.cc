#include "rdf/dictionary.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace rapida::rdf {

namespace {

constexpr uint64_t kMaxTerms = std::numeric_limits<TermId>::max();

}  // namespace

size_t Dictionary::Locate(uint32_t index, size_t* offset) {
  const uint64_t v = uint64_t{index} + (uint64_t{1} << kFirstSegmentBits);
  const size_t k = static_cast<size_t>(std::bit_width(v)) - 1 -
                   static_cast<size_t>(kFirstSegmentBits);
  *offset = static_cast<size_t>(v - (uint64_t{1} << (kFirstSegmentBits + k)));
  return k;
}

size_t Dictionary::SegmentCapacity(size_t k) {
  const uint64_t full = uint64_t{1} << (kFirstSegmentBits + k);
  const uint64_t base = full - (uint64_t{1} << kFirstSegmentBits);
  return static_cast<size_t>(std::min(full, kMaxTerms - base));
}

Dictionary::~Dictionary() { Release(); }

void Dictionary::Release() {
  size_t live = size_.load(std::memory_order_relaxed);
  for (size_t k = 0; k < kNumSegments && segments_[k] != nullptr; ++k) {
    const size_t n = std::min(live, SegmentCapacity(k));
    std::destroy_n(segments_[k], n);
    live -= n;
    ::operator delete(segments_[k]);
    segments_[k] = nullptr;
  }
  size_.store(0, std::memory_order_relaxed);
  index_.clear();
}

Dictionary::Dictionary(Dictionary&& other) noexcept {
  // Moves are only legal while no other thread touches `other` (dataset
  // construction / test setup), so no lock on the source is needed beyond
  // making the transfer itself well-formed.
  std::unique_lock lock(other.mu_);
  segments_ = std::exchange(other.segments_, {});
  size_.store(other.size_.exchange(0, std::memory_order_relaxed),
              std::memory_order_release);
  index_ = std::move(other.index_);
  other.index_.clear();
}

Dictionary& Dictionary::operator=(Dictionary&& other) noexcept {
  if (this != &other) {
    std::scoped_lock lock(mu_, other.mu_);
    Release();
    segments_ = std::exchange(other.segments_, {});
    size_.store(other.size_.exchange(0, std::memory_order_relaxed),
                std::memory_order_release);
    index_ = std::move(other.index_);
    other.index_.clear();
  }
  return *this;
}

const std::string& Dictionary::KeyOf(TermKind kind, std::string_view text,
                                     std::string_view datatype) {
  thread_local std::string key;
  key.clear();
  key.push_back(static_cast<char>('0' + static_cast<int>(kind)));
  key.append(text);
  if (!datatype.empty()) {
    key.push_back('\x01');
    key.append(datatype);
  }
  return key;
}

TermId Dictionary::Find(const std::string& key) const {
  std::shared_lock lock(mu_);
  auto it = index_.find(key);
  return it == index_.end() ? kInvalidTermId : it->second;
}

template <typename MakeTerm>
TermId Dictionary::InternKey(const std::string& key, MakeTerm&& make) {
  // Fast path: already interned (the common case on hot caches).
  if (TermId id = Find(key); id != kInvalidTermId) return id;
  Term term = make();
  NumValue num = ParseNumValue(term);
  std::unique_lock lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  const uint32_t n = size_.load(std::memory_order_relaxed);
  RAPIDA_CHECK(n < kMaxTerms) << "term dictionary full";
  size_t offset = 0;
  const size_t k = Locate(n, &offset);
  if (segments_[k] == nullptr) {
    // Raw storage: slots past size() are never constructed, so they touch
    // no pages.
    segments_[k] =
        static_cast<Entry*>(::operator new(SegmentCapacity(k) * sizeof(Entry)));
  }
  new (&segments_[k][offset]) Entry{std::move(term), num};
  // Publish: a reader that loads the new count sees the entry (and its
  // segment pointer) fully constructed.
  size_.store(n + 1, std::memory_order_release);
  index_.emplace(key, n + 1);
  return n + 1;
}

TermId Dictionary::Intern(const Term& term) {
  return InternKey(KeyOf(term.kind, term.text, term.datatype),
                   [&term] { return term; });
}

Dictionary::NumValue Dictionary::ParseNumValue(const Term& term) {
  NumValue num;
  if (term.is_literal()) {
    num.is_number = ParseDouble(term.text, &num.value);
  }
  return num;
}

TermId Dictionary::InternIri(std::string_view iri) {
  return InternKey(KeyOf(TermKind::kIri, iri, {}),
                   [iri] { return Term::Iri(std::string(iri)); });
}

TermId Dictionary::InternLiteral(std::string_view value,
                                 std::string_view datatype) {
  return InternKey(KeyOf(TermKind::kLiteral, value, datatype),
                   [value, datatype] {
                     return Term::Literal(std::string(value),
                                          std::string(datatype));
                   });
}

TermId Dictionary::InternInt(int64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  return InternLiteral(buf, kXsdInteger);
}

TermId Dictionary::InternDouble(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return InternLiteral(buf, kXsdDouble);
}

TermId Dictionary::Lookup(const Term& term) const {
  return Find(KeyOf(term.kind, term.text, term.datatype));
}

TermId Dictionary::LookupIri(std::string_view iri) const {
  return Find(KeyOf(TermKind::kIri, iri, {}));
}

const Dictionary::Entry& Dictionary::At(TermId id) const {
  size_t offset = 0;
  const size_t k = Locate(id - 1, &offset);
  return segments_[k][offset];
}

const Term& Dictionary::Get(TermId id) const {
  RAPIDA_CHECK(id != kInvalidTermId &&
               id <= size_.load(std::memory_order_acquire))
      << "bad term id " << id;
  return At(id).term;
}

std::optional<double> Dictionary::AsNumber(TermId id) const {
  if (id == kInvalidTermId || id > size_.load(std::memory_order_acquire)) {
    return std::nullopt;
  }
  const NumValue& num = At(id).num;
  if (!num.is_number) return std::nullopt;
  return num.value;
}

}  // namespace rapida::rdf
