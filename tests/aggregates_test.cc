#include "analytics/aggregates.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "analytics/value.h"

namespace rapida::analytics {
namespace {

using sparql::AggFunc;

class AggregatesTest : public ::testing::Test {
 protected:
  double Num(rdf::TermId id) { return *dict_.AsNumber(id); }
  rdf::Dictionary dict_;
};

TEST_F(AggregatesTest, CountSumAvg) {
  Aggregator count(AggFunc::kCount, false);
  Aggregator sum(AggFunc::kSum, false);
  Aggregator avg(AggFunc::kAvg, false);
  for (int v : {10, 20, 30}) {
    rdf::TermId id = dict_.InternInt(v);
    count.AddTerm(id, dict_);
    sum.AddTerm(id, dict_);
    avg.AddTerm(id, dict_);
  }
  EXPECT_DOUBLE_EQ(Num(count.Finalize(&dict_)), 3);
  EXPECT_DOUBLE_EQ(Num(sum.Finalize(&dict_)), 60);
  EXPECT_DOUBLE_EQ(Num(avg.Finalize(&dict_)), 20);
}

TEST_F(AggregatesTest, MinMaxNumeric) {
  Aggregator mn(AggFunc::kMin, false);
  Aggregator mx(AggFunc::kMax, false);
  for (int v : {7, 2, 9, 4}) {
    mn.AddTerm(dict_.InternInt(v), dict_);
    mx.AddTerm(dict_.InternInt(v), dict_);
  }
  EXPECT_DOUBLE_EQ(Num(mn.Finalize(&dict_)), 2);
  EXPECT_DOUBLE_EQ(Num(mx.Finalize(&dict_)), 9);
}

TEST_F(AggregatesTest, MinMaxLexicalForStrings) {
  Aggregator mn(AggFunc::kMin, false);
  for (const char* s : {"banana", "apple", "cherry"}) {
    mn.AddTerm(dict_.InternLiteral(s), dict_);
  }
  EXPECT_EQ(dict_.Get(mn.Finalize(&dict_)).text, "apple");
}

TEST_F(AggregatesTest, UnboundTermsSkipped) {
  Aggregator count(AggFunc::kCount, false);
  count.AddTerm(rdf::kInvalidTermId, dict_);
  count.AddTerm(dict_.InternInt(1), dict_);
  EXPECT_DOUBLE_EQ(Num(count.Finalize(&dict_)), 1);
}

TEST_F(AggregatesTest, EmptyGroupSemantics) {
  EXPECT_DOUBLE_EQ(Num(Aggregator(AggFunc::kCount, false).Finalize(&dict_)),
                   0);
  EXPECT_DOUBLE_EQ(Num(Aggregator(AggFunc::kSum, false).Finalize(&dict_)), 0);
  EXPECT_DOUBLE_EQ(Num(Aggregator(AggFunc::kAvg, false).Finalize(&dict_)), 0);
  EXPECT_EQ(Aggregator(AggFunc::kMin, false).Finalize(&dict_),
            rdf::kInvalidTermId);
}

TEST_F(AggregatesTest, Distinct) {
  Aggregator count(AggFunc::kCount, true);
  Aggregator sum(AggFunc::kSum, true);
  rdf::TermId five = dict_.InternInt(5);
  rdf::TermId six = dict_.InternInt(6);
  for (rdf::TermId id : {five, five, six, five}) {
    count.AddTerm(id, dict_);
    sum.AddTerm(id, dict_);
  }
  EXPECT_DOUBLE_EQ(Num(count.Finalize(&dict_)), 2);
  EXPECT_DOUBLE_EQ(Num(sum.Finalize(&dict_)), 11);
}

TEST_F(AggregatesTest, CountStarRows) {
  Aggregator count(AggFunc::kCount, false);
  count.AddRow();
  count.AddRow();
  EXPECT_DOUBLE_EQ(Num(count.Finalize(&dict_)), 2);
}

TEST_F(AggregatesTest, MergeEqualsSingleAccumulation) {
  // Algebraic property behind map-side pre-aggregation (paper Alg. 3):
  // splitting the input across partial aggregators and merging must give
  // the same result as one aggregator.
  std::vector<int> values = {5, 1, 9, 3, 7, 7, 2};
  for (AggFunc f : {AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg,
                    AggFunc::kMin, AggFunc::kMax}) {
    Aggregator whole(f, false);
    Aggregator part1(f, false), part2(f, false);
    for (size_t i = 0; i < values.size(); ++i) {
      rdf::TermId id = dict_.InternInt(values[i]);
      whole.AddTerm(id, dict_);
      (i % 2 == 0 ? part1 : part2).AddTerm(id, dict_);
    }
    part1.Merge(part2, dict_);
    EXPECT_EQ(whole.Finalize(&dict_), part1.Finalize(&dict_))
        << "func " << static_cast<int>(f);
  }
}

TEST_F(AggregatesTest, SerializePartialRoundTrip) {
  Aggregator agg(AggFunc::kSum, false);
  agg.AddTerm(dict_.InternInt(4), dict_);
  agg.AddTerm(dict_.InternInt(8), dict_);
  std::string data = agg.SerializePartial();
  auto restored = Aggregator::DeserializePartial(AggFunc::kSum, data);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->count(), 2u);
  EXPECT_DOUBLE_EQ(restored->sum(), 12.0);
  EXPECT_EQ(restored->Finalize(&dict_), agg.Finalize(&dict_));
}

TEST_F(AggregatesTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Aggregator::DeserializePartial(AggFunc::kSum, "junk").ok());
  EXPECT_FALSE(Aggregator::DeserializePartial(AggFunc::kSum, "1,2").ok());
  EXPECT_FALSE(
      Aggregator::DeserializePartial(AggFunc::kSum, "a,b,c,d,e").ok());
}

TEST_F(AggregatesTest, InternNumberCanonicalization) {
  // Integral doubles intern as integers; equal values intern identically.
  EXPECT_EQ(InternNumber(&dict_, 5.0), InternNumber(&dict_, 5.0));
  EXPECT_EQ(dict_.Get(InternNumber(&dict_, 5.0)).text, "5");
  EXPECT_EQ(dict_.Get(InternNumber(&dict_, 2.5)).text, "2.5");
}

TEST_F(AggregatesTest, CompareTermsNumericAware) {
  rdf::TermId five_int = dict_.InternInt(5);
  rdf::TermId five_plain = dict_.InternLiteral("5.0");
  rdf::TermId six = dict_.InternInt(6);
  EXPECT_EQ(CompareTerms(dict_, five_int, five_plain), 0);
  EXPECT_LT(CompareTerms(dict_, five_int, six), 0);
  EXPECT_GT(CompareTerms(dict_, six, five_plain), 0);
}

// MIN/MAX over mixed numeric, IRI, literal and unbound values: the cached
// numeric comparison must pick the same extremes as a CompareTerms fold,
// through AddTerm, DeserializePartial and Merge alike, and the partial
// state must serialize to the same bytes.
TEST_F(AggregatesTest, MinMaxCacheMatchesCompareTermsFold) {
  std::vector<rdf::TermId> pool = {
      dict_.InternInt(5),          dict_.InternLiteral("5.0"),
      dict_.InternInt(-3),         dict_.InternLiteral("2.5", rdf::kXsdDouble),
      dict_.InternIri("http://x/a"), dict_.InternIri("http://x/b"),
      dict_.InternLiteral("apple"), dict_.InternLiteral("zebra"),
      dict_.InternInt(40),         rdf::kInvalidTermId,
  };
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int round = 0; round < 50; ++round) {
    std::vector<rdf::TermId> values(1 + next() % 12);
    for (rdf::TermId& v : values) v = pool[next() % pool.size()];

    // The reference: CompareTerms folds and the SerializePartial layout
    // "count,sum,has,min,max,sample,concat".
    uint64_t count = 0;
    double sum = 0;
    rdf::TermId mn = rdf::kInvalidTermId, mx = rdf::kInvalidTermId;
    rdf::TermId sample = rdf::kInvalidTermId;
    std::string concat;
    for (rdf::TermId v : values) {
      if (v == rdf::kInvalidTermId) continue;
      if (count++ == 0) {
        mn = mx = v;
      } else {
        if (CompareTerms(dict_, v, mn) < 0) mn = v;
        if (CompareTerms(dict_, v, mx) > 0) mx = v;
      }
      if (auto num = dict_.AsNumber(v)) sum += *num;
      if (sample == rdf::kInvalidTermId || v < sample) sample = v;
      if (!concat.empty()) concat += ':';
      concat += std::to_string(v);
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%llu,%.17g,%d,%u,%u,%u,",
                  static_cast<unsigned long long>(count), sum,
                  count > 0 ? 1 : 0, mn, mx, sample);

    for (AggFunc f : {AggFunc::kMin, AggFunc::kMax, AggFunc::kGroupConcat}) {
      const std::string expected =
          std::string(buf) + (f == AggFunc::kGroupConcat ? concat : "");
      Aggregator whole(f, false);
      for (rdf::TermId v : values) whole.AddTerm(v, dict_);
      EXPECT_EQ(whole.SerializePartial(), expected);

      // Three contiguous parts: a live one, one rebuilt by
      // DeserializePartial, and a live one merged into a rebuilt one.
      const size_t cut1 = values.size() / 3, cut2 = 2 * values.size() / 3;
      Aggregator p0(f, false), p1(f, false), p2(f, false);
      for (size_t i = 0; i < values.size(); ++i) {
        (i < cut1 ? p0 : i < cut2 ? p1 : p2).AddTerm(values[i], dict_);
      }
      auto r1 = Aggregator::DeserializePartial(f, p1.SerializePartial());
      ASSERT_TRUE(r1.ok());
      p0.Merge(*r1, dict_);
      auto r0 = Aggregator::DeserializePartial(f, p0.SerializePartial());
      ASSERT_TRUE(r0.ok());
      r0->Merge(p2, dict_);
      EXPECT_EQ(r0->SerializePartial(), expected);
      EXPECT_EQ(r0->Finalize(&dict_), whole.Finalize(&dict_));
      if (f != AggFunc::kGroupConcat) {
        EXPECT_EQ(whole.Finalize(&dict_), f == AggFunc::kMin ? mn : mx);
      }
    }
  }
}

}  // namespace
}  // namespace rapida::analytics
