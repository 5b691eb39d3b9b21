#include "analytics/aggregates.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "analytics/value.h"

namespace rapida::analytics {
namespace {

using sparql::AggFunc;

/// CompareTerms as first defined (two AsNumber reads, then two Get reads):
/// the oracle the cached-number comparison must agree with.
int OracleCompare(const rdf::Dictionary& dict, rdf::TermId a, rdf::TermId b) {
  if (a == b) return 0;
  if (a == rdf::kInvalidTermId) return -1;
  if (b == rdf::kInvalidTermId) return 1;
  auto na = dict.AsNumber(a);
  auto nb = dict.AsNumber(b);
  if (na.has_value() && nb.has_value()) {
    if (*na < *nb) return -1;
    if (*na > *nb) return 1;
    return 0;
  }
  const rdf::Term& ta = dict.Get(a);
  const rdf::Term& tb = dict.Get(b);
  if (ta.kind != tb.kind) {
    return static_cast<int>(ta.kind) < static_cast<int>(tb.kind) ? -1 : 1;
  }
  int c = ta.text.compare(tb.text);
  if (c != 0) return c;
  return ta.datatype.compare(tb.datatype);
}

int Sign(int c) { return (c > 0) - (c < 0); }

std::string Partial(const Aggregator& agg) {
  std::string out;
  agg.AppendPartial(&out);
  return out;
}

class AggregatesTest : public ::testing::Test {
 protected:
  double Num(rdf::TermId id) { return *dict_.AsNumber(id); }
  /// Numeric (integer, plain and typed), IRI, plain-literal,
  /// typed-literal, blank and unbound terms, with equal texts across kinds
  /// and datatypes so every tie-break is reached.
  std::vector<rdf::TermId> MixedPool() {
    return {
        dict_.InternInt(5),
        dict_.InternLiteral("5.0"),
        dict_.InternInt(-3),
        dict_.InternLiteral("2.5", rdf::kXsdDouble),
        dict_.InternLiteral("10"),
        dict_.InternIri("http://x/a"),
        dict_.InternIri("http://x/b"),
        dict_.InternIri("apple"),
        dict_.InternLiteral("apple"),
        dict_.InternLiteral("apple", "http://x/type"),
        dict_.InternLiteral("apple", "http://x/other"),
        dict_.InternLiteral("zebra"),
        dict_.Intern(rdf::Term::Blank("apple")),
        dict_.InternInt(40),
        rdf::kInvalidTermId,
    };
  }
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

TEST_F(AggregatesTest, AppendPartialRoundTrip) {
  Aggregator agg(AggFunc::kSum, false);
  agg.AddTerm(dict_.InternInt(4), dict_);
  agg.AddTerm(dict_.InternInt(8), dict_);
  std::string data = Partial(agg);
  Aggregator restored(AggFunc::kSum, false);
  ASSERT_TRUE(restored.MergePartial(data, dict_).ok());
  EXPECT_EQ(restored.count(), 2u);
  EXPECT_DOUBLE_EQ(restored.sum(), 12.0);
  EXPECT_EQ(restored.Finalize(&dict_), agg.Finalize(&dict_));
}

TEST_F(AggregatesTest, ResetRestoresFreshState) {
  const std::vector<rdf::TermId> pool = MixedPool();
  for (AggFunc f : {AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg,
                    AggFunc::kMin, AggFunc::kMax, AggFunc::kSample,
                    AggFunc::kGroupConcat}) {
    Aggregator reused(f, false, ";");
    for (rdf::TermId v : pool) reused.AddTerm(v, dict_);
    reused.AddRow();
    reused.Reset();
    EXPECT_EQ(Partial(reused), Partial(Aggregator(f, false, ";")));
    Aggregator fresh(f, false, ";");
    for (size_t i = 0; i < 4; ++i) {
      reused.AddTerm(pool[i], dict_);
      fresh.AddTerm(pool[i], dict_);
    }
    EXPECT_EQ(Partial(reused), Partial(fresh)) << static_cast<int>(f);
    EXPECT_EQ(reused.Finalize(&dict_), fresh.Finalize(&dict_))
        << static_cast<int>(f);
  }
}

TEST_F(AggregatesTest, MergePartialRejectsGarbage) {
  Aggregator agg(AggFunc::kSum, false);
  agg.AddTerm(dict_.InternInt(4), dict_);
  const std::string before = Partial(agg);
  EXPECT_FALSE(agg.MergePartial("junk", dict_).ok());
  EXPECT_FALSE(agg.MergePartial("1,2", dict_).ok());
  EXPECT_FALSE(agg.MergePartial("a,b,c,d,e", dict_).ok());
  EXPECT_FALSE(agg.MergePartial("1,2,1,3,3,3,x", dict_).ok());
  EXPECT_EQ(Partial(agg), before);
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

// Every ordered pair of the mixed pool orders the same under the cached-
// number comparison MIN/MAX uses, under CompareTerms, and under the
// original two-reads-per-side definition.
TEST_F(AggregatesTest, CompareTermsWithNumsMatchesCompareTerms) {
  const std::vector<rdf::TermId> pool = MixedPool();
  for (rdf::TermId a : pool) {
    for (rdf::TermId b : pool) {
      const int want = Sign(OracleCompare(dict_, a, b));
      EXPECT_EQ(Sign(CompareTerms(dict_, a, b)), want) << a << " vs " << b;
      EXPECT_EQ(Sign(CompareTermsWithNums(dict_, a, dict_.AsNumber(a), b,
                                          dict_.AsNumber(b))),
                want)
          << a << " vs " << b;
      EXPECT_EQ(Sign(OracleCompare(dict_, b, a)), -want) << a << " vs " << b;
    }
  }
}

// MIN/MAX/SAMPLE over mixed numeric, IRI, literal and unbound values: the
// cached numeric comparison must pick the same extremes as a CompareTerms
// fold, through AddTerm, MergePartial and Merge alike, and the
// partial state must serialize to the same bytes.
TEST_F(AggregatesTest, MinMaxCacheMatchesCompareTermsFold) {
  const std::vector<rdf::TermId> pool = MixedPool();
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

    // The reference: CompareTerms folds and the AppendPartial layout
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
        if (OracleCompare(dict_, v, mn) < 0) mn = v;
        if (OracleCompare(dict_, v, mx) > 0) mx = v;
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

    for (AggFunc f : {AggFunc::kMin, AggFunc::kMax, AggFunc::kSample,
                      AggFunc::kGroupConcat}) {
      const std::string expected =
          std::string(buf) + (f == AggFunc::kGroupConcat ? concat : "");
      Aggregator whole(f, false);
      for (rdf::TermId v : values) whole.AddTerm(v, dict_);
      EXPECT_EQ(Partial(whole), expected);

      // Three contiguous parts: a live one, one rebuilt by MergePartial
      // into a fresh one, and a live one merged into a rebuilt one.
      const size_t cut1 = values.size() / 3, cut2 = 2 * values.size() / 3;
      Aggregator p0(f, false), p1(f, false), p2(f, false);
      for (size_t i = 0; i < values.size(); ++i) {
        (i < cut1 ? p0 : i < cut2 ? p1 : p2).AddTerm(values[i], dict_);
      }
      Aggregator r1(f, false), r0(f, false);
      ASSERT_TRUE(r1.MergePartial(Partial(p1), dict_).ok());
      p0.Merge(r1, dict_);
      ASSERT_TRUE(r0.MergePartial(Partial(p0), dict_).ok());
      r0.Merge(p2, dict_);
      EXPECT_EQ(Partial(r0), expected);
      EXPECT_EQ(r0.Finalize(&dict_), whole.Finalize(&dict_));
      if (f != AggFunc::kGroupConcat) {
        EXPECT_EQ(whole.Finalize(&dict_),
                  f == AggFunc::kMin ? mn : f == AggFunc::kMax ? mx : sample);
      }
    }
  }
}

}  // namespace
}  // namespace rapida::analytics
