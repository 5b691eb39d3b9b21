// Batch workloads: every (query, engine) pair of a paper experiment, run
// one query at a time from one client in a closed loop, each query on a
// fresh Cluster over the shared Dataset.
//
//   fig8b-batch     BSBM, 8000 products, MG1-MG4, Fig. 8(b) cluster model
//                   (50 nodes, bytes scaled to 172 GB, map-join threshold
//                   8 KiB), unsharded, exec_threads = 1. Loads the batch-
//                   kernel path of Cluster::Run, where ~95% of query time
//                   sits; factorization never pays here (factor 1.00).
//   pubmed-sharded  PubMed, 5000 publications, MG11-MG18, Table 4 model
//                   (60 nodes, 230 GB), 4 shards under the locality
//                   scheme, exec_threads = 1. Loads the scalar operator
//                   path through the ShardChannel with cross-shard bytes,
//                   and factorized intermediates that pay (MG13-MG16).
//
// One thread runs each query: a second executor thread added pool wake-ups
// to every query's CPU time, and their cost moved with the host's load.
//
// A pass runs every pair once in a seeded order. Before timing, every pair
// is checked once against the ReferenceEvaluator; timed passes must then
// reproduce the checked result hash and the exact MapReduce counters.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analytics/analytical_query.h"
#include "analytics/reference_evaluator.h"
#include "engines/engines.h"
#include "harness.h"
#include "plan/planner.h"
#include "sparql/parser.h"
#include "testing/normalize.h"
#include "util/random.h"
#include "workload/bsbm.h"
#include "workload/catalog.h"
#include "workload/pubmed.h"

namespace perfbench {
namespace {

using rapida::engine::Dataset;
using rapida::engine::EngineOptions;

struct BatchSpec {
  const char* name;
  const char* generator;  // "bsbm" or "pubmed"
  int scale;              // products or publications
  double target_gb;       // modeled dataset size (cost-model bytes_scale)
  int num_nodes;
  int exec_threads;
  int shards;
  rapida::mr::ShardingScheme scheme;
  std::vector<std::string> queries;
};

const std::vector<BatchSpec>& Specs() {
  static const auto* specs = new std::vector<BatchSpec>{
      {"fig8b-batch", "bsbm", 8000, 172.0, 50, 1, 0,
       rapida::mr::ShardingScheme::kHashSubject,
       {"MG1", "MG2", "MG3", "MG4"}},
      {"pubmed-sharded", "pubmed", 5000, 230.0, 60, 1, 4,
       rapida::mr::ShardingScheme::kLocality,
       {"MG11", "MG12", "MG13", "MG14", "MG15", "MG16", "MG17", "MG18"}},
  };
  return *specs;
}

// Short engine names, in MakeAllEngines order, label the per-engine metrics.
const char* const kEngineShort[] = {"hive-naive", "hive-mqo", "rapid-plus",
                                    "rapidanalytics"};
const char* const kExecuteSpan[] = {
    "engines.execute.hive-naive", "engines.execute.hive-mqo",
    "engines.execute.rapid-plus", "engines.execute.rapidanalytics"};
constexpr int kNumEngines = 4;

// Set-up is repeated so that setup_s can be reported as a median.
constexpr int kSetupReps = 5;
constexpr size_t kCalibrateEvery = 4;

struct SetupTimes {
  double generate_s = 0, dataset_s = 0, vp_s = 0, tg_s = 0;
  double cpu_s = 0;  // process CPU time of the whole set-up
};

std::unique_ptr<Dataset> BuildDataset(const BatchSpec& spec, uint64_t seed,
                                      Tracer* tracer, SetupTimes* t) {
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t t0 = NowNs();
  rapida::rdf::Graph graph;
  {
    ScopedSpan span(tracer, "setup.generate", 0, 0);
    if (std::string(spec.generator) == "bsbm") {
      rapida::workload::BsbmConfig cfg;
      cfg.num_products = spec.scale;
      cfg.offers_per_product = 3.0;
      cfg.seed = rapida::Random(seed).Split(1).Next();
      graph = rapida::workload::GenerateBsbm(cfg);
    } else {
      rapida::workload::PubmedConfig cfg;
      cfg.num_publications = spec.scale;
      cfg.seed = rapida::Random(seed).Split(2).Next();
      graph = rapida::workload::GeneratePubmed(cfg);
    }
  }
  const int64_t t1 = NowNs();
  std::unique_ptr<Dataset> ds;
  {
    ScopedSpan span(tracer, "setup.dataset", 0, 0);
    ds = std::make_unique<Dataset>(std::move(graph));
  }
  const int64_t t2 = NowNs();
  rapida::Status vp, tg;
  {
    ScopedSpan span(tracer, "setup.vp", 0, 0);
    vp = ds->EnsureVpTables();
  }
  const int64_t t3 = NowNs();
  {
    ScopedSpan span(tracer, "setup.tg", 0, 0);
    tg = ds->EnsureTripleGroups();
  }
  const int64_t t4 = NowNs();
  if (!vp.ok() || !tg.ok()) {
    std::fprintf(stderr, "dataset layout build failed: %s %s\n",
                 vp.ToString().c_str(), tg.ToString().c_str());
    return nullptr;
  }
  *t = {Seconds(t0, t1), Seconds(t1, t2), Seconds(t2, t3), Seconds(t3, t4),
        Seconds(cpu0, ProcessCpuNs())};
  return ds;
}

/// What one execution of a pair produced; the check pass's copy is the
/// baseline every timed execution must reproduce exactly.
struct Outcome {
  bool ok = false;
  std::string error;
  uint64_t hash = 0;
  double latency_ms = 0;
  double cpu_ms = 0;  // process CPU time over the same interval
  uint64_t peak_dfs_bytes = 0;
  rapida::mr::WorkflowStats workflow;
};

bool SameCounters(const rapida::mr::WorkflowStats& a,
                  const rapida::mr::WorkflowStats& b) {
  if (a.jobs.size() != b.jobs.size()) return false;
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    const auto& x = a.jobs[i];
    const auto& y = b.jobs[i];
    if (x.sim_seconds != y.sim_seconds || x.input_records != y.input_records ||
        x.input_bytes != y.input_bytes ||
        x.map_output_records != y.map_output_records ||
        x.map_output_bytes != y.map_output_bytes ||
        x.shuffle_records != y.shuffle_records ||
        x.shuffle_bytes != y.shuffle_bytes ||
        x.shuffle_cross_bytes != y.shuffle_cross_bytes ||
        x.output_bytes != y.output_bytes ||
        x.factorized_groups != y.factorized_groups ||
        x.factorized_flat_rows != y.factorized_flat_rows) {
      return false;
    }
  }
  return true;
}

class BatchRunner {
 public:
  BatchRunner(const BatchSpec& spec, Dataset* dataset)
      : spec_(spec), dataset_(dataset) {
    EngineOptions eopts;
    // Dimension tables stay broadcastable, fact tables do not, as in the
    // repo's Fig. 8 / Table 4 benches.
    eopts.map_join_threshold_bytes = 8 * 1024;
    eopts.num_shards = spec.shards;
    eopts.sharding_scheme = spec.scheme;
    engine_options_ = eopts;
    engines_ = rapida::engine::MakeAllEngines(eopts);
    cluster_.num_nodes = spec.num_nodes;
    cluster_.exec_threads = spec.exec_threads;
    cluster_.num_shards = spec.shards;
    cluster_.sharding = spec.scheme;
    const uint64_t sample = dataset->graph().EstimateSerializedBytes();
    if (sample > 0) {
      cluster_.bytes_scale = spec.target_gb * 1024.0 * 1024.0 * 1024.0 /
                             static_cast<double>(sample);
    }
    for (const std::string& q : spec.queries) {
      auto found = rapida::workload::FindQuery(q);
      texts_.push_back(found.ok() ? (*found)->sparql : std::string());
    }
  }

  size_t num_pairs() const { return spec_.queries.size() * kNumEngines; }
  const rapida::mr::ClusterConfig& cluster() const { return cluster_; }

  /// parse -> analyze -> execute on a fresh cluster; the latency and the
  /// CPU time cover exactly that. When tracing, the structural plan is
  /// timed after the result, outside the latency. `table`, when given,
  /// receives the result.
  Outcome Run(size_t pair, Tracer* tracer, uint64_t trace, uint32_t parent,
              rapida::analytics::BindingTable* table = nullptr) {
    const size_t qi = pair / kNumEngines;
    const int e = static_cast<int>(pair % kNumEngines);
    Outcome out;
    ScopedSpan query_span(tracer, "query", trace, parent);
    const int64_t start = NowNs();
    const int64_t cpu_start = ProcessCpuNs();
    std::unique_ptr<rapida::sparql::SelectQuery> parsed;
    {
      ScopedSpan span(tracer, "sparql.parse", trace, query_span.id());
      auto p = rapida::sparql::ParseQuery(texts_[qi]);
      if (!p.ok()) {
        out.error = p.status().ToString();
        return out;
      }
      parsed = std::move(*p);
    }
    rapida::StatusOr<rapida::analytics::AnalyticalQuery> query =
        rapida::Status::Internal("unset");
    {
      ScopedSpan span(tracer, "analytics.analyze", trace, query_span.id());
      query = rapida::analytics::AnalyzeQuery(*parsed);
    }
    if (!query.ok()) {
      out.error = query.status().ToString();
      return out;
    }
    rapida::mr::Cluster cluster(cluster_, &dataset_->dfs());
    rapida::engine::ExecStats stats;
    rapida::StatusOr<rapida::analytics::BindingTable> result =
        rapida::Status::Internal("unset");
    {
      ScopedSpan span(tracer, kExecuteSpan[e], trace, query_span.id());
      JobSpanObserver observer(tracer, trace, span.id());
      if (span.id() != 0) cluster.SetObserver(&observer);
      dataset_->dfs().ResetPeak();
      result = engines_[e]->Execute(*query, dataset_, &cluster, &stats);
      cluster.SetObserver(nullptr);
    }
    out.latency_ms = static_cast<double>(NowNs() - start) / 1e6;
    out.cpu_ms = static_cast<double>(ProcessCpuNs() - cpu_start) / 1e6;
    out.peak_dfs_bytes = dataset_->dfs().PeakStoredBytes();
    if (!result.ok()) {
      out.error = result.status().ToString();
      return out;
    }
    out.ok = true;
    out.hash = ResultHash(*result);
    out.workflow = std::move(stats.workflow);
    if (query_span.id() != 0) {
      ScopedSpan span(tracer, "plan.plan", trace, query_span.id());
      auto plan = rapida::plan::PlanForEngine(engines_[e]->name(), *query,
                                              nullptr, engine_options_);
      (void)plan;
    }
    if (table != nullptr) *table = std::move(*result);
    return out;
  }

  /// Untimed check of one query on every engine against the reference
  /// evaluator. Returns the number of mismatching engines and fills
  /// `baselines` (indexed by pair).
  int CheckQuery(size_t qi, std::vector<Outcome>* baselines,
                 std::vector<std::string>* errors) {
    auto parsed = rapida::sparql::ParseQuery(texts_[qi]);
    if (!parsed.ok()) {
      errors->push_back(spec_.queries[qi] + ": " +
                        parsed.status().ToString());
      return kNumEngines;
    }
    rapida::analytics::ReferenceEvaluator reference(&dataset_->graph());
    auto expected = reference.Evaluate(**parsed);
    if (!expected.ok()) {
      errors->push_back(spec_.queries[qi] + " reference: " +
                        expected.status().ToString());
      return kNumEngines;
    }
    const auto want =
        rapida::difftest::Normalize(*expected, dataset_->dict());
    int bad = 0;
    for (int e = 0; e < kNumEngines; ++e) {
      const size_t pair = qi * kNumEngines + static_cast<size_t>(e);
      rapida::analytics::BindingTable got;
      Outcome& base = (*baselines)[pair];
      base = Run(pair, nullptr, 0, 0, &got);
      const std::string problem =
          !base.ok ? base.error
                   : rapida::difftest::CompareNormalized(
                         want,
                         rapida::difftest::Normalize(got, dataset_->dict()));
      if (!problem.empty()) {
        errors->push_back(Label(pair) + " (reference check): " + problem);
        base.ok = false;
        ++bad;
      }
    }
    return bad;
  }

  std::string Label(size_t pair) const {
    return spec_.queries[pair / kNumEngines] + "/" +
           kEngineShort[pair % kNumEngines];
  }

 private:
  const BatchSpec& spec_;
  Dataset* dataset_;
  EngineOptions engine_options_;
  rapida::mr::ClusterConfig cluster_;
  std::vector<std::unique_ptr<rapida::engine::Engine>> engines_;
  std::vector<std::string> texts_;
};

/// One row of the per-query table the result file carries.
struct QueryRow {
  int pass = 0;
  size_t pair = 0;
  bool traced = false;
  bool correct = false;
  Outcome outcome;
};

}  // namespace

int RunBatchWorkload(const Options& opts) {
  const BatchSpec* spec = nullptr;
  for (const BatchSpec& s : Specs()) {
    if (opts.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown batch workload '%s'\n",
                 opts.workload.c_str());
    return 2;
  }
  Tracer tracer;
  tracer.set_enabled(opts.trace);
  const uint32_t run_span = opts.trace ? tracer.NewId() : 0;
  const int64_t run_start = NowNs();

  // ---- set-up, repeated; the last dataset is the one measured ----
  std::vector<SetupTimes> setups;
  std::unique_ptr<Dataset> dataset;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dataset.reset();
    SetupTimes t;
    dataset = BuildDataset(*spec, opts.seed, &tracer, &t);
    if (dataset == nullptr) return 1;
    setups.push_back(t);
  }
  BatchRunner runner(*spec, dataset.get());
  // Peak RSS covers set-up and the timed loop, not the reference check.
  const double setup_peak_rss_mb = PeakRssMb();

  // ---- untimed output check against the reference evaluator ----
  tracer.set_enabled(false);
  std::vector<std::string> errors;
  std::vector<Outcome> baselines(runner.num_pairs());
  int check_failures = 0;
  for (size_t qi = 0; qi < spec->queries.size(); ++qi) {
    check_failures += runner.CheckQuery(qi, &baselines, &errors);
  }
  ResetPeakRss();

  // ---- timed closed loop: whole passes until the time is used ----
  // With --trace, odd passes are traced and even ones are not, so the
  // tracing overhead is measured on the same data in the same run.
  rapida::Random rng = rapida::Random(opts.seed).Split(3);
  std::vector<size_t> order(runner.num_pairs());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<QueryRow> rows;
  Calibrator calibrator;
  const CpuTicks ticks_start = ReadCpuTicks();
  const int64_t timed_start = NowNs();
  const int64_t deadline =
      timed_start + static_cast<int64_t>(opts.seconds * 1e9);
  // A traced run needs at least one traced and one untraced pass.
  const int min_passes = opts.trace ? 2 : 1;
  int pass = 0;
  while (pass < min_passes || NowNs() < deadline) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    const bool traced = opts.trace && pass % 2 == 1;
    tracer.set_enabled(traced);
    ScopedSpan pass_span(&tracer, "pass", 0, run_span);
    for (size_t pair : order) {
      // Host speed, probed every kCalibrateEvery queries, outside the
      // per-query times.
      if (rows.size() % kCalibrateEvery == 0) calibrator.Sample();
      QueryRow row;
      row.pass = pass;
      row.pair = pair;
      row.traced = traced;
      row.outcome = runner.Run(pair, &tracer, rows.size() + 1,
                               pass_span.id());
      const Outcome& base = baselines[pair];
      row.correct = row.outcome.ok && base.ok &&
                    row.outcome.hash == base.hash &&
                    SameCounters(row.outcome.workflow, base.workflow);
      if (!row.correct && errors.size() < 50) {
        errors.push_back(runner.Label(pair) + " pass " +
                         std::to_string(pass) + ": " +
                         (row.outcome.ok ? "result hash or counters differ "
                                           "from the checked run"
                                         : row.outcome.error));
      }
      rows.push_back(std::move(row));
    }
    ++pass;
  }
  const int64_t timed_end = NowNs();
  const CpuTicks ticks_end = ReadCpuTicks();
  const double peak_rss_mb = std::max(setup_peak_rss_mb, PeakRssMb());
  tracer.set_enabled(opts.trace);
  if (opts.trace) {
    tracer.Record({0, run_span, 0, "run", run_start, timed_end});
  }

  // ---- raw result file ----
  JsonWriter w;
  w.BeginObject();
  w.Key("context");
  w.BeginObject();
  WriteContext(&w, opts, ticks_start, ticks_end);
  w.Field("exec_threads", spec->exec_threads);
  w.Field("num_shards", spec->shards);
  w.Field("sharding",
          spec->shards > 1 ? rapida::mr::ShardingSchemeName(spec->scheme)
                           : "none");
  w.Field("num_nodes", spec->num_nodes);
  w.Field("bytes_scale", runner.cluster().bytes_scale);
  w.Key("triples");
  w.BeginObject();
  w.Field(spec->generator, static_cast<uint64_t>(dataset->graph().size()));
  w.EndObject();
  w.Field("queries", static_cast<uint64_t>(spec->queries.size()));
  w.Field("engines", kNumEngines);
  w.EndObject();

  w.BeginArray("setup");
  for (const SetupTimes& t : setups) {
    w.BeginObject();
    w.Field("generate_s", t.generate_s);
    w.Field("dataset_s", t.dataset_s);
    w.Field("vp_s", t.vp_s);
    w.Field("tg_s", t.tg_s);
    w.Field("total_s", t.generate_s + t.dataset_s + t.vp_s + t.tg_s);
    w.Field("cpu_s", t.cpu_s);
    w.EndObject();
  }
  w.EndArray();

  w.Key("check");
  w.BeginObject();
  w.Field("pairs", static_cast<uint64_t>(runner.num_pairs()));
  w.Field("failures", check_failures);
  w.EndObject();

  w.Field("timed_wall_s",
          Seconds(timed_start, timed_end - calibrator.wall_ns()));
  w.Field("passes", pass);
  w.Array("calib_ms", calibrator.ms());

  w.Key("queries");
  w.BeginObject();
  auto column = [&](const char* key, auto get) {
    w.BeginArray(key);
    for (const QueryRow& r : rows) w.Value(get(r));
    w.EndArray();
  };
  column("pass", [](const QueryRow& r) { return r.pass; });
  column("query", [&](const QueryRow& r) {
    return spec->queries[r.pair / kNumEngines];
  });
  column("engine", [](const QueryRow& r) {
    return std::string(kEngineShort[r.pair % kNumEngines]);
  });
  column("traced", [](const QueryRow& r) { return r.traced; });
  column("ok", [](const QueryRow& r) { return r.outcome.ok; });
  column("correct", [](const QueryRow& r) { return r.correct; });
  column("latency_ms", [](const QueryRow& r) { return r.outcome.latency_ms; });
  column("cpu_ms", [](const QueryRow& r) { return r.outcome.cpu_ms; });
  column("sim_s", [](const QueryRow& r) {
    return r.outcome.workflow.TotalSimSeconds();
  });
  column("peak_dfs_bytes",
         [](const QueryRow& r) { return r.outcome.peak_dfs_bytes; });
  w.EndObject();

  // Per-job counters of every query row (row index = "q").
  w.Key("jobs");
  w.BeginObject();
  auto job_column = [&](const char* key, auto get) {
    w.BeginArray(key);
    for (size_t i = 0; i < rows.size(); ++i) {
      for (const auto& j : rows[i].outcome.workflow.jobs) w.Value(get(i, j));
    }
    w.EndArray();
  };
  using JS = rapida::mr::JobStats;
  job_column("q", [](size_t i, const JS&) { return static_cast<uint64_t>(i); });
  job_column("map_only", [](size_t, const JS& j) { return j.map_only; });
  job_column("input_records",
             [](size_t, const JS& j) { return j.input_records; });
  job_column("input_bytes", [](size_t, const JS& j) { return j.input_bytes; });
  job_column("map_output_records",
             [](size_t, const JS& j) { return j.map_output_records; });
  job_column("map_output_bytes",
             [](size_t, const JS& j) { return j.map_output_bytes; });
  job_column("shuffle_records",
             [](size_t, const JS& j) { return j.shuffle_records; });
  job_column("shuffle_bytes",
             [](size_t, const JS& j) { return j.shuffle_bytes; });
  job_column("shuffle_cross_bytes",
             [](size_t, const JS& j) { return j.shuffle_cross_bytes; });
  job_column("output_bytes",
             [](size_t, const JS& j) { return j.output_bytes; });
  job_column("factorized_groups",
             [](size_t, const JS& j) { return j.factorized_groups; });
  job_column("factorized_flat_rows",
             [](size_t, const JS& j) { return j.factorized_flat_rows; });
  job_column("sim_s", [](size_t, const JS& j) { return j.sim_seconds; });
  w.EndObject();

  w.Array("errors", errors);
  w.Field("peak_rss_mb", peak_rss_mb);
  if (opts.trace) w.Spans(tracer.spans());
  w.EndObject();
  if (!WriteFile(opts.out_path, w.str())) {
    std::fprintf(stderr, "cannot write %s\n", opts.out_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
