#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "rdf/graph_index.h"
#include "rdf/term.h"

namespace rapida::rdf {
namespace {

TEST(TermTest, Factories) {
  Term iri = Term::Iri("http://x/a");
  EXPECT_TRUE(iri.is_iri());
  EXPECT_EQ(iri.ToNTriples(), "<http://x/a>");

  Term lit = Term::Literal("hello");
  EXPECT_TRUE(lit.is_literal());
  EXPECT_EQ(lit.ToNTriples(), "\"hello\"");

  Term typed = Term::Literal("5", kXsdInteger);
  EXPECT_EQ(typed.ToNTriples(),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>");

  Term blank = Term::Blank("b0");
  EXPECT_TRUE(blank.is_blank());
  EXPECT_EQ(blank.ToNTriples(), "_:b0");
}

TEST(TermTest, LiteralEscaping) {
  Term lit = Term::Literal("a\"b\\c\nd");
  EXPECT_EQ(lit.ToNTriples(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(TermTest, EqualityDistinguishesKindAndDatatype) {
  EXPECT_EQ(Term::Iri("x"), Term::Iri("x"));
  EXPECT_FALSE(Term::Iri("x") == Term::Literal("x"));
  EXPECT_FALSE(Term::Literal("5") == Term::Literal("5", kXsdInteger));
}

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary d;
  TermId a = d.InternIri("http://x/a");
  TermId b = d.InternIri("http://x/a");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, kInvalidTermId);
  EXPECT_EQ(d.size(), 1u);
}

TEST(DictionaryTest, DistinctTermsGetDistinctIds) {
  Dictionary d;
  TermId iri = d.InternIri("x");
  TermId lit = d.InternLiteral("x");
  TermId blank = d.Intern(Term::Blank("x"));
  EXPECT_NE(iri, lit);
  EXPECT_NE(lit, blank);
  EXPECT_NE(iri, blank);
  EXPECT_EQ(d.size(), 3u);
}

TEST(DictionaryTest, RoundTrip) {
  Dictionary d;
  TermId id = d.InternLiteral("42", kXsdInteger);
  const Term& t = d.Get(id);
  EXPECT_EQ(t.text, "42");
  EXPECT_EQ(t.datatype, kXsdInteger);
}

TEST(DictionaryTest, LookupMissingReturnsInvalid) {
  Dictionary d;
  EXPECT_EQ(d.LookupIri("http://nope"), kInvalidTermId);
}

TEST(DictionaryTest, AsNumber) {
  Dictionary d;
  EXPECT_DOUBLE_EQ(*d.AsNumber(d.InternInt(42)), 42.0);
  EXPECT_DOUBLE_EQ(*d.AsNumber(d.InternDouble(1.5)), 1.5);
  EXPECT_DOUBLE_EQ(*d.AsNumber(d.InternLiteral("7")), 7.0);
  EXPECT_FALSE(d.AsNumber(d.InternLiteral("abc")).has_value());
  EXPECT_FALSE(d.AsNumber(d.InternIri("42")).has_value());
  EXPECT_FALSE(d.AsNumber(kInvalidTermId).has_value());
}

// The term the concurrency tests intern as id i + 1: IRIs at even i,
// integer literals at odd i.
std::string ExpectedText(uint32_t i) {
  return i % 2 == 0 ? "http://x/t" + std::to_string(i) : std::to_string(i);
}

TermId InternNth(Dictionary* d, uint32_t i) {
  return i % 2 == 0 ? d->InternIri(ExpectedText(i)) : d->InternInt(i);
}

TEST(DictionaryTest, MovesKeepIdsAndTerms) {
  constexpr uint32_t kTerms = 5000;  // past the first two segments
  Dictionary d;
  for (uint32_t i = 0; i < kTerms; ++i) ASSERT_EQ(InternNth(&d, i), i + 1);
  Dictionary moved(std::move(d));
  Dictionary assigned;
  assigned.InternIri("http://x/dropped");
  assigned = std::move(moved);
  EXPECT_EQ(d.size(), 0u);
  EXPECT_EQ(moved.size(), 0u);
  ASSERT_EQ(assigned.size(), kTerms);
  for (uint32_t i = 0; i < kTerms; ++i) {
    EXPECT_EQ(assigned.Get(i + 1).text, ExpectedText(i));
    EXPECT_EQ(assigned.AsNumber(i + 1).has_value(), i % 2 == 1);
  }
  EXPECT_FALSE(assigned.AsNumber(kTerms + 1).has_value());
  EXPECT_EQ(assigned.InternInt(kTerms), kTerms + 1);
}

// Get/AsNumber/size take no lock: one writer interns 300,000 terms
// (crossing eight segment boundaries) while three readers poll size() and
// read every id up to what they saw. A reader must find each term fully
// built — the text and number the writer interned for that id — and
// size() never shrinking. Run under ThreadSanitizer in scripts/check.sh.
TEST(DictionaryTest, ConcurrentInternAndRead) {
  constexpr uint32_t kTerms = 300000;
  Dictionary d;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> mismatches{0}, reads{0};
  auto reader = [&](uint32_t seed) {
    uint32_t last = 0;
    uint64_t local_reads = 0, local_bad = 0;
    uint32_t rng = seed;
    for (bool finished = false; !finished;) {
      finished = done.load(std::memory_order_acquire);
      const uint32_t n = static_cast<uint32_t>(d.size());
      if (n < last) ++local_bad;
      // The newest ids (just published), then a random older one.
      for (uint32_t id = n > 8 ? n - 8 : 1; id <= n; ++id) {
        rng = rng * 1664525u + 1013904223u;
        const uint32_t probe[2] = {id, 1 + rng % id};
        for (uint32_t p : probe) {
          const uint32_t i = p - 1;
          if (d.Get(p).text != ExpectedText(i)) ++local_bad;
          const std::optional<double> num = d.AsNumber(p);
          if (num.has_value() != (i % 2 == 1) ||
              (num.has_value() && *num != static_cast<double>(i))) {
            ++local_bad;
          }
          ++local_reads;
        }
      }
      last = n;
    }
    if (last != kTerms) ++local_bad;
    reads.fetch_add(local_reads);
    mismatches.fetch_add(local_bad);
  };
  std::vector<std::thread> readers;
  for (uint32_t r = 0; r < 3; ++r) readers.emplace_back(reader, r + 1);
  for (uint32_t i = 0; i < kTerms; ++i) {
    if (InternNth(&d, i) != i + 1) mismatches.fetch_add(1);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(d.size(), kTerms);
}

TEST(GraphTest, AddAndCount) {
  Graph g;
  g.AddIri("s1", "p1", "o1");
  g.AddIri("s1", "p2", "o2");
  g.AddLit("s2", "p1", "hello");
  EXPECT_EQ(g.size(), 3u);
  auto counts = g.PropertyCounts();
  EXPECT_EQ(counts[g.dict().LookupIri("p1")], 2u);
  EXPECT_EQ(counts[g.dict().LookupIri("p2")], 1u);
}

TEST(GraphTest, SubjectGroups) {
  Graph g;
  g.AddIri("s2", "p1", "o1");
  g.AddIri("s1", "p1", "o1");
  g.AddIri("s1", "p2", "o2");
  const auto& groups = g.SubjectGroups();
  ASSERT_EQ(groups.size(), 2u);
  // Groups are sorted by subject id; s2 was interned first, so it comes
  // first.
  EXPECT_EQ(groups[0].subject, g.dict().LookupIri("s2"));
  EXPECT_EQ(groups[0].triples.size(), 1u);
  EXPECT_EQ(groups[1].subject, g.dict().LookupIri("s1"));
  EXPECT_EQ(groups[1].triples.size(), 2u);
}

TEST(GraphTest, SubjectGroupsRebuildAfterChange) {
  Graph g;
  g.AddIri("s1", "p1", "o1");
  EXPECT_EQ(g.SubjectGroups().size(), 1u);
  g.AddIri("s2", "p1", "o1");
  EXPECT_EQ(g.SubjectGroups().size(), 2u);
}

TEST(GraphIndexTest, AccessPaths) {
  Graph g;
  g.AddIri("s1", "p", "o1");
  g.AddIri("s1", "p", "o2");
  g.AddIri("s2", "p", "o1");
  g.AddIri("s2", "q", "o3");
  GraphIndex idx(g);
  const Dictionary& d = g.dict();
  TermId p = d.LookupIri("p"), q = d.LookupIri("q");
  TermId s1 = d.LookupIri("s1"), s2 = d.LookupIri("s2");
  TermId o1 = d.LookupIri("o1"), o3 = d.LookupIri("o3");

  EXPECT_EQ(idx.ByProperty(p).size(), 3u);
  EXPECT_EQ(idx.Objects(p, s1).size(), 2u);
  EXPECT_EQ(idx.Subjects(p, o1).size(), 2u);
  EXPECT_TRUE(idx.Contains(s2, q, o3));
  EXPECT_FALSE(idx.Contains(s1, q, o3));
  EXPECT_TRUE(idx.ByProperty(d.LookupIri("nope")).empty());
}

}  // namespace
}  // namespace rapida::rdf
