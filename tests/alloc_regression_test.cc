// Allocation regression gate for the MapReduce hot path: a representative
// shuffle+reduce job, a join-shaped job, a sharded relational join +
// grouped aggregation, a factorized star join + weighted aggregation +
// DISTINCT chain, an NTGA α-join cycle and high-cardinality GROUP BY /
// Agg-Join groupings must each stay below one heap allocation per record.
// The columnar-store record representation makes the emit/shuffle/sort/
// reduce loops allocation-free per record (buffer growth, task vectors and
// thread bookkeeping amortize away), so the whole job costs O(tasks + keys)
// allocations, not O(records). The std::string-backed representation this
// replaced paid 2+ allocations per record at emit alone once payloads
// exceed the small-string buffer — an order of magnitude over this budget.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "engines/dataset.h"
#include "engines/ntga_exec.h"
#include "engines/relational_ops.h"
#include "mapreduce/cluster.h"
#include "mapreduce/dfs.h"
#include "rdf/graph.h"
#include "util/string_util.h"

namespace {

std::atomic<size_t> g_allocations{0};
std::atomic<bool> g_counting{false};

void* CountedAlloc(size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t n) { return CountedAlloc(n); }
void* operator new[](size_t n) { return CountedAlloc(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace rapida::mr {
namespace {

TEST(AllocRegressionTest, ReduceJobStaysUnderPerRecordBudget) {
  constexpr int kRecords = 20000;
  constexpr int kDistinctKeys = 100;

  Dfs dfs;
  RecordBatch input;
  for (int i = 0; i < kRecords; ++i) {
    // Keys and values longer than any small-string buffer, so a
    // string-per-record representation could not hide behind SSO.
    input.Add("key-" + std::to_string(i % kDistinctKeys) +
                  "-padded-well-beyond-sso",
              "value-payload-padded-well-beyond-sso-" + std::to_string(i));
  }
  ASSERT_TRUE(dfs.Write("input", std::move(input)).ok());

  Cluster cluster(ClusterConfig{}, &dfs);
  JobConfig job;
  job.name = "alloc-regression";
  job.inputs = {"input"};
  job.output = "out";
  job.map = [](const Record& r, int, MapContext* ctx) {
    ctx->Emit(r.key, r.value);
  };
  job.reduce = [](std::string_view key, const ValueSpan& values,
                  ReduceContext* ctx) {
    ctx->Emit(key, std::to_string(values.size()));
  };

  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
  auto stats = cluster.Run(job);
  g_counting.store(false, std::memory_order_seq_cst);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->input_records, static_cast<uint64_t>(kRecords));
  EXPECT_EQ(stats->output_records, static_cast<uint64_t>(kDistinctKeys));

  size_t allocations = g_allocations.load(std::memory_order_relaxed);
  // Generous pinned budget: well under one allocation per two records,
  // while leaving lots of headroom for task/thread/closure bookkeeping.
  // The per-record-string representation costs several times kRecords.
  EXPECT_LT(allocations, static_cast<size_t>(kRecords) / 2)
      << "hot path regressed to per-record heap allocation ("
      << allocations << " allocations for " << kRecords << " records)";
}

// Same gate for a join-shaped job: two tagged inputs, a per-record map
// emitting tag-prefixed values through a value buffer kept in map
// TaskState, and a cross-product reduce whose side pools live in reduce
// TaskState so they warm up once per task instead of reallocating per key
// group. This mirrors the shape of the repartition join in
// RelationalOps::Join.
TEST(AllocRegressionTest, JoinShapedJobStaysUnderPerRecordBudget) {
  constexpr int kRowsPerSide = 10000;
  constexpr int kDistinctKeys = 2000;  // 5 rows per key per side.

  Dfs dfs;
  for (int side = 0; side < 2; ++side) {
    RecordBatch input;
    for (int i = 0; i < kRowsPerSide; ++i) {
      // Comma-encoded rows whose first field is the join key; padded with
      // wide constants so emitted values never fit a small-string buffer.
      input.Add("", std::to_string(i % kDistinctKeys) + ",900000000" +
                        std::to_string(side) + ",910000000,920000000," +
                        std::to_string(i));
    }
    ASSERT_TRUE(
        dfs.Write(side == 0 ? "left" : "right", std::move(input)).ok());
  }

  Cluster cluster(ClusterConfig{}, &dfs);
  JobConfig job;
  job.name = "alloc-regression-join";
  job.inputs = {"left", "right"};
  job.output = "out";
  job.map = [](const Record& r, int tag, MapContext* ctx) {
    std::string* val_buf = ctx->TaskState<std::string>();
    std::string_view key = r.value.substr(0, r.value.find(','));
    val_buf->assign(tag == 0 ? "L|" : "R|");
    val_buf->append(r.value);
    ctx->Emit(key, *val_buf);
  };
  job.reduce = [](std::string_view key, const ValueSpan& values,
                  ReduceContext* ctx) {
    // Flat side pools: contiguous bytes plus end offsets, like the
    // repartition join's CSR side buffers.
    struct JoinScratch {
      std::string left_bytes, right_bytes;
      std::vector<uint32_t> left_end, right_end;
      std::string out_buf;
    };
    auto* s = ctx->TaskState<JoinScratch>();
    s->left_bytes.clear();
    s->right_bytes.clear();
    s->left_end.clear();
    s->right_end.clear();
    for (const auto& v : values) {
      if (v.size() < 2) continue;
      const bool left = v[0] == 'L';
      std::string& bytes = left ? s->left_bytes : s->right_bytes;
      bytes.append(v.substr(2));
      (left ? s->left_end : s->right_end)
          .push_back(static_cast<uint32_t>(bytes.size()));
    }
    for (size_t li = 0; li < s->left_end.size(); ++li) {
      const uint32_t lb = li == 0 ? 0 : s->left_end[li - 1];
      for (size_t ri = 0; ri < s->right_end.size(); ++ri) {
        const uint32_t rb = ri == 0 ? 0 : s->right_end[ri - 1];
        s->out_buf.assign(s->left_bytes, lb, s->left_end[li] - lb);
        s->out_buf += '|';
        s->out_buf.append(s->right_bytes, rb, s->right_end[ri] - rb);
        ctx->Emit(key, s->out_buf);
      }
    }
  };
  job.reduce_parallel_safe = true;

  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
  auto stats = cluster.Run(job);
  g_counting.store(false, std::memory_order_seq_cst);
  ASSERT_TRUE(stats.ok()) << stats.status();
  constexpr uint64_t kInputRecords = 2 * kRowsPerSide;
  EXPECT_EQ(stats->input_records, kInputRecords);
  // 5x5 cross product per key.
  EXPECT_EQ(stats->output_records, static_cast<uint64_t>(kDistinctKeys) * 25);

  size_t allocations = g_allocations.load(std::memory_order_relaxed);
  // The map reuses one per-task value buffer and the reduce reuses per-task
  // scratch, so the whole join costs O(tasks + buffer growth) allocations.
  EXPECT_LT(allocations, static_cast<size_t>(kInputRecords) / 2)
      << "join hot path regressed to per-record heap allocation ("
      << allocations << " allocations for " << kInputRecords << " records)";
}

// Same gate for the relational operators on a sharded data plane: a
// repartition RelationalOps::Join feeding a partial-aggregation GroupBy on
// a 4-shard cluster. Sharded runs execute the same per-record operator
// bodies as unsharded ones — decode rows and emit buffers in TaskState,
// the pre-aggregation table flushed by map_finish — while the cluster
// attributes every emission to its source record's shard.
TEST(AllocRegressionTest, ShardedJoinThenGroupByStaysUnderPerRowBudget) {
  constexpr int kRowsPerSide = 10000;  // one row per subject per side
  constexpr int kGroups = 50;

  engine::Dataset dataset{rdf::Graph()};
  rdf::Dictionary& dict = dataset.dict();
  RecordBatch left, right;
  for (int i = 0; i < kRowsPerSide; ++i) {
    const std::string s = std::to_string(dict.InternInt(i));
    left.Add(s, std::to_string(dict.InternInt(1000000 + i)));
    right.Add(s, std::to_string(dict.InternInt(2000000 + i % kGroups)));
  }
  ASSERT_TRUE(dataset.dfs().Write("vp:left", std::move(left)).ok());
  ASSERT_TRUE(dataset.dfs().Write("vp:right", std::move(right)).ok());
  auto vp_input = [](const std::string& file, const std::string& obj) {
    engine::JoinInput in;
    in.file = file;
    in.columns = {"s", obj};
    in.is_vp = true;
    in.join_column = "s";
    return in;
  };

  ClusterConfig config;
  config.num_shards = 4;
  Cluster cluster(config, &dataset.dfs());
  engine::EngineOptions options;
  options.num_shards = 4;
  options.enable_map_joins = false;  // exercise the repartition join
  engine::RelationalOps ops(&cluster, &dataset, options, "alloc-sharded");
  engine::RelationalOps::AggColumn count;
  count.count_star = true;
  count.output_name = "n";

  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
  auto joined = ops.Join(
      "join", {vp_input("vp:left", "x"), vp_input("vp:right", "g")}, nullptr);
  StatusOr<engine::TableRef> grouped =
      joined.ok() ? ops.GroupBy("group", *joined, {"g"}, {count}, nullptr)
                  : joined.status();
  g_counting.store(false, std::memory_order_seq_cst);
  ASSERT_TRUE(grouped.ok()) << grouped.status();
  ASSERT_EQ(cluster.history().size(), 2u);
  EXPECT_EQ(cluster.history()[0].output_records,
            static_cast<uint64_t>(kRowsPerSide));
  EXPECT_EQ(cluster.history()[1].output_records,
            static_cast<uint64_t>(kGroups));
  EXPECT_GT(cluster.history()[0].shuffle_cross_bytes, 0u);

  constexpr size_t kInputRows = 2 * kRowsPerSide;
  size_t allocations = g_allocations.load(std::memory_order_relaxed);
  EXPECT_LT(allocations, kInputRows / 2)
      << "sharded relational operators regressed to per-row heap "
         "allocation ("
      << allocations << " allocations for " << kInputRows << " input rows)";
  ops.Cleanup();
}

// Same gate for the factorized (d-representation) operators: a star join
// over three multi-valued VP inputs (one of them OUTER) that emits group
// records, a COUNT GroupBy keyed inside a factor (aggregated by weight,
// without enumerating the groups' flat rows), then a DISTINCT projection
// that stream-decompresses the groups. Run with repartition joins and with
// map-joins: the broadcast tables, decode rows, factor pools, group
// encoders and the partial-aggregation table all live in task scratch, so
// the chain costs O(tasks + distinct keys) allocations, not O(rows).
TEST(AllocRegressionTest, FactorizedStarGroupByDistinctStaysUnderPerRowBudget) {
  constexpr int kSubjects = 4000;
  constexpr int kGroups = 100;  // distinct values of the grouping column

  engine::Dataset dataset{rdf::Graph()};
  rdf::Dictionary& dict = dataset.dict();
  RecordBatch a, b, c;
  size_t input_rows = 0;
  for (int i = 0; i < kSubjects; ++i) {
    const std::string s = std::to_string(dict.InternInt(i));
    for (int k = 0; k <= i % 3; ++k, ++input_rows) {  // 1-3 objects
      a.Add(s, std::to_string(dict.InternInt(1000000 + 3 * i + k)));
    }
    if (i % 7 != 0) {  // 2 objects; every 7th subject misses (inner)
      for (int k = 0; k < 2; ++k, ++input_rows) {
        b.Add(s, std::to_string(
                     dict.InternInt(2000000 + (2 * i + k) % kGroups)));
      }
    }
    if (i % 5 != 0) {  // every 5th subject misses (outer: NULL pad)
      c.Add(s, std::to_string(dict.InternInt(3000000 + i)));
      ++input_rows;
    }
  }
  ASSERT_TRUE(dataset.dfs().Write("vp:a", std::move(a)).ok());
  ASSERT_TRUE(dataset.dfs().Write("vp:b", std::move(b)).ok());
  ASSERT_TRUE(dataset.dfs().Write("vp:c", std::move(c)).ok());
  auto vp_input = [](const std::string& file, const std::string& obj,
                     bool outer) {
    engine::JoinInput in;
    in.file = file;
    in.columns = {"s", obj};
    in.is_vp = true;
    in.join_column = "s";
    in.outer = outer;
    return in;
  };

  for (bool map_joins : {false, true}) {
    Cluster cluster(ClusterConfig{}, &dataset.dfs());
    engine::EngineOptions options;
    options.enable_map_joins = map_joins;
    options.map_join_threshold_bytes = 1 << 30;
    engine::RelationalOps ops(&cluster, &dataset, options,
                              map_joins ? "alloc-fact-mj" : "alloc-fact");
    engine::RelationalOps::AggColumn count;
    count.count_star = true;
    count.output_name = "n";

    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_seq_cst);
    auto star = ops.Join("star",
                         {vp_input("vp:a", "x", false),
                          vp_input("vp:b", "y", false),
                          vp_input("vp:c", "z", true)},
                         nullptr, /*factorize_output=*/true);
    StatusOr<engine::TableRef> grouped =
        star.ok() ? ops.GroupBy("by_y", *star, {"y"}, {count}, nullptr)
                  : star.status();
    StatusOr<engine::TableRef> distinct =
        star.ok() ? ops.DistinctProject("dp", *star, {"s", "y"}, nullptr)
                  : star.status();
    g_counting.store(false, std::memory_order_seq_cst);
    ASSERT_TRUE(grouped.ok()) << grouped.status();
    ASSERT_TRUE(distinct.ok()) << distinct.status();
    ASSERT_TRUE(star->factorized());
    ASSERT_EQ(cluster.history().size(), 3u);
    EXPECT_EQ(cluster.history()[0].name.find("(map-join)") !=
                  std::string::npos,
              map_joins);
    EXPECT_GT(cluster.history()[0].factorized_groups, 0u);
    EXPECT_EQ(cluster.history()[1].output_records,
              static_cast<uint64_t>(kGroups));

    size_t allocations = g_allocations.load(std::memory_order_relaxed);
    EXPECT_LT(allocations, input_rows)
        << "factorized operators regressed to per-row heap allocation ("
        << allocations << " allocations for " << input_rows
        << " input rows, map_joins=" << map_joins << ")";
    ops.Cleanup();
  }
}

// Same gate for the NTGA data plane: one TG_AlphaJoin cycle (Alg. 2) of
// a two-star offer/product pattern over real triplegroup files, with an α
// condition on the last cycle. The map filters each raw triplegroup on its
// text and emits it through reused buffers, and the reduce splices star
// texts from TaskState pools, so no step builds a TripleGroup per record.
TEST(AllocRegressionTest, NtgaAlphaJoinStaysUnderPerTriplegroupBudget) {
  constexpr int kProducts = 2000;
  constexpr int kOffersPerProduct = 4;
  const std::string x = "http://example.org/";

  rdf::Graph graph;
  for (int p = 0; p < kProducts; ++p) {
    const std::string product = x + "product" + std::to_string(p);
    graph.AddIri(product, rdf::kRdfType, x + "Product");
    graph.AddLit(product, x + "label", "label-" + std::to_string(p));
    for (int o = 0; o < kOffersPerProduct; ++o) {
      const std::string offer =
          x + "offer" + std::to_string(p * kOffersPerProduct + o);
      graph.AddIri(offer, x + "product", product);
      graph.AddInt(offer, x + "price", 100 + o);
    }
  }
  engine::Dataset dataset(std::move(graph));
  ASSERT_TRUE(dataset.EnsureTripleGroups().ok());
  const rdf::Dictionary& dict = dataset.dict();
  auto key = [&](const std::string& p) {
    return ntga::DataPropKey{dict.LookupIri(x + p), rdf::kInvalidTermId};
  };

  // ?o product ?p ; price ?x .  ?p a Product ; label ?l .
  ntga::ResolvedPattern pattern;
  pattern.type_id = dataset.type_id();
  ntga::ResolvedStar offer;
  offer.subject_var = "o";
  offer.triples = {{key("product"), "p"}, {key("price"), "x"}};
  offer.primary = {key("product"), key("price")};
  ntga::ResolvedStar product;
  product.subject_var = "p";
  const ntga::DataPropKey type_key{dataset.type_id(),
                                   dict.LookupIri(x + "Product")};
  product.triples = {{type_key, ""}, {key("label"), "l"}};
  product.primary = {type_key, key("label")};
  pattern.stars = {offer, product};
  ntga::ResolvedJoin join;
  join.star_a = 0;
  join.role_a = ntga::JoinRole::kObject;
  join.prop_a = key("product");
  join.star_b = 1;
  join.role_b = ntga::JoinRole::kSubject;
  pattern.joins = {join};
  const std::vector<ntga::AlphaCondition> alphas = {
      {ntga::AlphaConstraint{1, key("label"), true}}};

  Cluster cluster(ClusterConfig{}, &dataset.dfs());
  engine::NtgaExec exec(&cluster, &dataset, engine::EngineOptions{},
                        "alloc-ntga");
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
  auto matches = exec.ComputePatternMatches(pattern, alphas, {}, "aj");
  g_counting.store(false, std::memory_order_seq_cst);
  ASSERT_TRUE(matches.ok()) << matches.status();
  auto out = dataset.dfs().Open(matches->nested_file);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->records.size(),
            static_cast<size_t>(kProducts * kOffersPerProduct));

  constexpr size_t kInputGroups = kProducts * (1 + kOffersPerProduct);
  size_t allocations = g_allocations.load(std::memory_order_relaxed);
  EXPECT_LT(allocations, kInputGroups / 2)
      << "NTGA α-join regressed to per-record heap allocation ("
      << allocations << " allocations for " << kInputGroups
      << " input triplegroups)";
  exec.Cleanup();
}

// Same gate for grouped aggregation where almost every row opens a new
// group (two rows per key, the shape of a desugared SELECT DISTINCT): a
// flat COUNT GroupBy with partial aggregation off and on, and an NTGA
// Agg-Join (Alg. 3) grouping of the same cardinality. The partial tables
// keep keys and aggregator rows back to back in task scratch, the reduce
// reuses one reset aggregator row per task, and finalizing a COUNT that is
// already interned allocates nothing, so a new group costs no allocation.
TEST(AllocRegressionTest, HighCardinalityGroupByStaysUnderPerRowBudget) {
  constexpr int kRows = 20000;
  constexpr int kKeys = 10000;
  constexpr size_t kBudget = kRows / 4;
  const std::string x = "http://example.org/";

  engine::Dataset dataset{rdf::Graph()};
  rdf::Dictionary& dict = dataset.dict();
  RecordBatch rows;
  for (int i = 0; i < kRows; ++i) {
    rows.Add("", engine::EncodeRow(
                     {dict.InternIri(x + "k" + std::to_string(i % kKeys)),
                      dict.InternIri(x + "v" + std::to_string(i))}));
  }
  ASSERT_TRUE(dataset.dfs().Write("rows", std::move(rows)).ok());
  engine::TableRef input;
  input.file = "rows";
  input.columns = {"k", "v"};
  engine::RelationalOps::AggColumn count;
  count.column = "v";
  count.output_name = "n";

  for (bool partial : {false, true}) {
    Cluster cluster(ClusterConfig{}, &dataset.dfs());
    engine::EngineOptions options;
    options.partial_aggregation = partial;
    engine::RelationalOps ops(&cluster, &dataset, options,
                              partial ? "alloc-gb-partial" : "alloc-gb");
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_seq_cst);
    auto grouped = ops.GroupBy("by_k", input, {"k"}, {count}, nullptr);
    g_counting.store(false, std::memory_order_seq_cst);
    ASSERT_TRUE(grouped.ok()) << grouped.status();
    ASSERT_EQ(cluster.history().size(), 1u);
    EXPECT_EQ(cluster.history()[0].output_records,
              static_cast<uint64_t>(kKeys));

    size_t allocations = g_allocations.load(std::memory_order_relaxed);
    EXPECT_LT(allocations, kBudget)
        << "GroupBy regressed to per-group heap allocation (" << allocations
        << " allocations for " << kRows << " rows, partial=" << partial
        << ")";
    ops.Cleanup();
  }

  // ?s g ?g, COUNT(?s) GROUP BY ?g: one star, so the Agg-Join map filters
  // the raw triplegroups itself. Only the Agg-Join cycle is counted (from
  // its setup phase to its completion), not the collection of its output
  // into BindingTable rows.
  rdf::Graph graph;
  for (int i = 0; i < kRows; ++i) {
    graph.AddIri(x + "s" + std::to_string(i), x + "g",
                 x + "k" + std::to_string(i % kKeys));
  }
  engine::Dataset ntga_dataset(std::move(graph));
  ASSERT_TRUE(ntga_dataset.EnsureTripleGroups().ok());
  const ntga::DataPropKey g_key{ntga_dataset.dict().LookupIri(x + "g"),
                                rdf::kInvalidTermId};
  ntga::ResolvedPattern pattern;
  pattern.type_id = ntga_dataset.type_id();
  ntga::ResolvedStar star;
  star.subject_var = "s";
  star.triples = {{g_key, "g"}};
  star.primary = {g_key};
  pattern.stars = {star};
  engine::NtgaGrouping grouping;
  grouping.spec.group_vars = {"g"};
  ntga::AggSpec count_s;
  count_s.var = "s";
  count_s.output_name = "n";
  grouping.spec.aggs = {count_s};
  grouping.pattern_vars = {"s", "g"};
  grouping.output_columns = {"g", "n"};

  struct CountJob : ClusterObserver {
    Status OnPhase(const std::string&, const char* phase) override {
      if (std::string_view(phase) == "setup") {
        g_allocations.store(0, std::memory_order_relaxed);
        g_counting.store(true, std::memory_order_seq_cst);
      }
      return Status::OK();
    }
    void OnJobComplete(JobStats*) override {
      g_counting.store(false, std::memory_order_seq_cst);
    }
  } count_job;
  for (bool partial : {false, true}) {
    Cluster cluster(ClusterConfig{}, &ntga_dataset.dfs());
    cluster.SetObserver(&count_job);
    engine::EngineOptions options;
    options.partial_aggregation = partial;
    engine::NtgaExec exec(&cluster, &ntga_dataset, options,
                          partial ? "alloc-agj-partial" : "alloc-agj");
    auto matches = exec.ComputePatternMatches(pattern, {}, {}, "agj");
    ASSERT_TRUE(matches.ok()) << matches.status();
    auto tables = exec.RunAggJoins(pattern, *matches, {}, {grouping},
                                   /*parallel=*/false, "agj");
    ASSERT_TRUE(tables.ok()) << tables.status();
    ASSERT_EQ(cluster.history().size(), 1u);
    EXPECT_EQ(cluster.history()[0].input_records,
              static_cast<uint64_t>(kRows));
    EXPECT_EQ((*tables)[0].NumRows(), static_cast<size_t>(kKeys));

    size_t allocations = g_allocations.load(std::memory_order_relaxed);
    EXPECT_LT(allocations, kBudget)
        << "Agg-Join regressed to per-group heap allocation (" << allocations
        << " allocations for " << kRows << " rows, partial=" << partial
        << ")";
    exec.Cleanup();
  }
}

}  // namespace
}  // namespace rapida::mr
