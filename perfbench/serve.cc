// serve-mixed: a QueryService in a closed loop over the three catalog
// datasets at the service's small scale (the generators' defaults).
//
//   rounds   the timed loop runs in rounds of kEpochsPerRound epochs, each
//            on a fresh deployment (datasets, service, store). Mutations
//            only add triples, so one long loop would make every read
//            dearer the more epochs a fast host got through; rounds keep
//            the state each read sees independent of host speed.
//   warm-up  untimed, per round: one pass over the catalog fills the
//            caches and the store, so the timed loop measures the steady
//            state.
//   readers  3 sessions; together they replay the catalog, each its own
//            seeded third of it in seeded orders, one query at a time
//            (Submit, then Response).
//   writer   after every 64 completed reads, Mutate("bsbm", ...) with 5
//            seeded new offers, beside the next 64 reads. The pace follows
//            the read count, not a timer, so the mix is the same at any
//            speed.
//   service  defaults, except workers = 2, cluster.exec_threads = 1 and a
//            fresh store directory per run.
//
// This loads what the batch workloads bypass: admission and queueing, the
// plan and result caches, shared-scan batching, store probe and publish,
// and incremental view maintenance on Mutate.
//
// Every read is checked against the reference evaluator for the dataset
// version it saw (read before Submit and after Response). Oracle answers
// come from a shadow copy of each dataset that replays the same seeded
// mutation batches, outside the timed window; they are computed only for
// the versions some read could have seen.
#include <algorithm>
#include <barrier>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analytics/reference_evaluator.h"
#include "engines/dataset.h"
#include "harness.h"
#include "plan/planner.h"
#include "rdf/term.h"
#include "service/query_service.h"
#include "sparql/parser.h"
#include "testing/normalize.h"
#include "util/random.h"
#include "workload/bsbm.h"
#include "workload/catalog.h"
#include "workload/chem2bio.h"
#include "workload/pubmed.h"

namespace perfbench {
namespace {

using rapida::engine::Dataset;
namespace fs = std::filesystem;

constexpr int kReaders = 3;
constexpr int kReadsPerMutation = 64;
constexpr int kEpochsPerRound = 32;
// The host-speed probe runs at every kCalibrateEvery-th epoch end, outside
// the epochs' CPU time and the timed wall time.
constexpr int kCalibrateEvery = 4;
constexpr int kOffersPerMutation = 5;
constexpr int kSetupReps = 5;
// Front-end timing in the traced run: repetitions over the catalog.
constexpr int kFrontendReps = 5;
const char* const kDatasets[] = {"bsbm", "chem", "pubmed"};
constexpr int kNumDatasets = 3;
constexpr int kBsbm = 0;

rapida::rdf::Graph Generate(int which, uint64_t seed) {
  const uint64_t s = rapida::Random(seed).Split(10 + which).Next();
  if (which == 0) {
    rapida::workload::BsbmConfig cfg;
    cfg.seed = s;
    return rapida::workload::GenerateBsbm(cfg);
  }
  if (which == 1) {
    rapida::workload::ChemConfig cfg;
    cfg.seed = s;
    return rapida::workload::GenerateChem2Bio(cfg);
  }
  rapida::workload::PubmedConfig cfg;
  cfg.seed = s;
  return rapida::workload::GeneratePubmed(cfg);
}

/// Mutation batch `k` (1-based): kOffersPerMutation offers with fresh
/// subjects, so every triple is an insert.
std::vector<Dataset::TripleUpdate> MutationBatch(uint64_t seed, int k) {
  using rapida::rdf::Term;
  const std::string ns(rapida::workload::kBsbmNs);
  const rapida::workload::BsbmConfig defaults;
  rapida::Random rng = rapida::Random(seed).Split(1000 + k);
  std::vector<Dataset::TripleUpdate> ups;
  for (int i = 0; i < kOffersPerMutation; ++i) {
    const std::string offer =
        ns + "OfferBench" + std::to_string(k) + "x" + std::to_string(i);
    const uint64_t product = 1 + rng.Uniform(defaults.num_products);
    const uint64_t price = 50 + rng.Uniform(9950);
    const uint64_t vendor = 1 + rng.Uniform(defaults.num_vendors);
    ups.push_back({Term::Iri(offer), Term::Iri(ns + "product"),
                   Term::Iri(ns + "Product" + std::to_string(product))});
    ups.push_back({Term::Iri(offer), Term::Iri(ns + "price"),
                   Term::Literal(std::to_string(price),
                                 rapida::rdf::kXsdInteger)});
    ups.push_back({Term::Iri(offer), Term::Iri(ns + "vendor"),
                   Term::Iri(ns + "Vendor" + std::to_string(vendor))});
  }
  return ups;
}

struct SetupTimes {
  double generate_s = 0, dataset_s = 0, vp_s = 0, tg_s = 0, service_s = 0;
  double cpu_s = 0;  // process CPU time of the whole set-up
};

/// Datasets plus the service over them. Members are declared so that the
/// service (which points at the datasets) is destroyed first.
struct Deployment {
  std::unique_ptr<Dataset> datasets[kNumDatasets];
  std::unique_ptr<rapida::service::QueryService> service;
  std::vector<int> reader_sessions;
};

std::unique_ptr<Deployment> Deploy(const Options& opts, int rep,
                                   Tracer* tracer, SetupTimes* t) {
  const int64_t cpu0 = ProcessCpuNs();
  auto d = std::make_unique<Deployment>();
  for (int i = 0; i < kNumDatasets; ++i) {
    int64_t t0 = NowNs();
    rapida::rdf::Graph graph;
    {
      ScopedSpan span(tracer, "setup.generate", 0, 0);
      graph = Generate(i, opts.seed);
    }
    int64_t t1 = NowNs();
    {
      ScopedSpan span(tracer, "setup.dataset", 0, 0);
      d->datasets[i] = std::make_unique<Dataset>(std::move(graph));
    }
    int64_t t2 = NowNs();
    rapida::Status vp, tg;
    {
      ScopedSpan span(tracer, "setup.vp", 0, 0);
      vp = d->datasets[i]->EnsureVpTables();
    }
    int64_t t3 = NowNs();
    {
      ScopedSpan span(tracer, "setup.tg", 0, 0);
      tg = d->datasets[i]->EnsureTripleGroups();
    }
    int64_t t4 = NowNs();
    if (!vp.ok() || !tg.ok()) {
      std::fprintf(stderr, "%s layout build failed: %s %s\n", kDatasets[i],
                   vp.ToString().c_str(), tg.ToString().c_str());
      return nullptr;
    }
    t->generate_s += Seconds(t0, t1);
    t->dataset_s += Seconds(t1, t2);
    t->vp_s += Seconds(t2, t3);
    t->tg_s += Seconds(t3, t4);
  }

  const std::string store = opts.scratch_dir + "/store-" + std::to_string(rep);
  std::error_code ec;
  fs::remove_all(store, ec);
  const int64_t s0 = NowNs();
  {
    ScopedSpan span(tracer, "setup.service", 0, 0);
    rapida::service::ServiceOptions so;
    so.workers = 2;
    so.cluster.exec_threads = 1;
    so.store_dir = store;
    d->service = std::make_unique<rapida::service::QueryService>(so);
    for (int i = 0; i < kNumDatasets; ++i) {
      d->service->RegisterDataset(kDatasets[i], d->datasets[i].get());
    }
    for (int r = 0; r < kReaders; ++r) {
      d->reader_sessions.push_back(
          d->service->OpenSession("reader" + std::to_string(r)));
    }
  }
  t->service_s = Seconds(s0, NowNs());
  t->cpu_s = Seconds(cpu0, ProcessCpuNs());
  return d;
}

/// One completed (or rejected) read.
struct Read {
  int query = 0;  // catalog index
  int result = -1;  // index of the distinct normalized result (ok reads)
  bool traced = false;
  bool ok = false;
  bool result_cache_hit = false;
  bool store_hit = false;
  int batch_size = 1;
  int64_t k0 = 0, k1 = 0;  // mutations applied before Submit / after Response
  uint64_t hash = 0;
  double latency_ms = 0, submit_ms = 0, queue_ms = 0, exec_ms = 0;
  double sim_s = 0;
  std::string error;
};

/// A result kept for the after-run check, stored flat: the harness holds
/// one per distinct (query, result) and should add little to peak RSS.
struct FlatTable {
  std::vector<std::string> vars;
  std::vector<rapida::rdf::TermId> cells;

  explicit FlatTable(const rapida::analytics::BindingTable& t)
      : vars(t.vars()) {
    cells.reserve(t.NumRows() * t.NumCols());
    for (const auto& row : t.rows()) {
      cells.insert(cells.end(), row.begin(), row.end());
    }
  }

  rapida::analytics::BindingTable Expand() const {
    rapida::analytics::BindingTable t(vars);
    const size_t cols = vars.size();
    for (size_t i = 0; cols > 0 && i + cols <= cells.size(); i += cols) {
      t.AddRow(std::vector<rapida::rdf::TermId>(cells.begin() + i,
                                                cells.begin() + i + cols));
    }
    return t;
  }
};

struct ClassKey {
  int query;
  uint64_t hash;
  bool operator<(const ClassKey& o) const {
    return query != o.query ? query < o.query : hash < o.hash;
  }
};

/// The closed loop, in epochs of kReadsPerMutation reads. The readers
/// split the catalog into disjoint seeded shares and each replays its share
/// in seeded orders, one query at a time; an epoch ends when every reader
/// has made its quota of reads, and the writer then applies that epoch's
/// mutation while the readers go on with the next one. Disjoint shares and
/// fixed quotas make each read's outcome (hit, miss, patched) a function
/// of the seed, except for reads that race the epoch's mutation: with
/// free-running readers on the whole catalog, how often two readers missed
/// on the same query, and how reads fell between mutations, drifted with
/// host speed.
class ServeRun {
 public:
  ServeRun(const Options& opts, Deployment* d, Tracer* tracer,
           int64_t deadline, int max_epochs, std::atomic<uint64_t>* trace_seq,
           Calibrator* calibrator)
      : opts_(opts),
        d_(d),
        tracer_(tracer),
        deadline_(deadline),
        max_epochs_(max_epochs),
        trace_seq_(trace_seq),
        calibrator_(calibrator),
        base_version_(d->datasets[kBsbm]->version()),
        epoch_cpu_start_(ProcessCpuNs()),
        reads_(kReaders),
        reps_(kReaders) {}

  int64_t Mutations() const {
    return static_cast<int64_t>(d_->datasets[kBsbm]->version() -
                                base_version_);
  }

  /// Runs epochs until the deadline has passed or max_epochs are done (at
  /// least one epoch).
  void Run() {
    std::vector<std::thread> threads;
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([this, r] { Reader(r); });
    }
    threads.emplace_back([this] { Writer(); });
    for (std::thread& t : threads) t.join();
  }

  std::vector<std::vector<Read>>& reads() { return reads_; }
  std::vector<std::map<ClassKey, FlatTable>>& reps() { return reps_; }
  const std::vector<double>& mutate_ms() const { return mutate_ms_; }
  const std::vector<std::string>& errors() const { return errors_; }
  /// Per epoch, the process CPU time it took (its reads plus the mutation
  /// running beside them).
  const std::vector<double>& epoch_cpu_ms() const { return epoch_cpu_ms_; }
  /// Per epoch, the largest DFS high-water mark of any dataset.
  const std::vector<uint64_t>& epoch_peak_dfs_bytes() const {
    return epoch_peak_dfs_bytes_;
  }

 private:
  struct EpochEnd {
    ServeRun* run;
    void operator()() noexcept { run->OnEpochEnd(); }
  };

  /// Runs while every thread waits at the barrier, so the state it writes
  /// is read by all of them without further locking.
  void OnEpochEnd() noexcept {
    ++epochs_;
    const int64_t cpu = ProcessCpuNs();
    epoch_cpu_ms_.push_back(static_cast<double>(cpu - epoch_cpu_start_) / 1e6);
    if (epochs_ % kCalibrateEvery == 1) {
      calibrator_->Sample();
      epoch_cpu_start_ = ProcessCpuNs();
    } else {
      epoch_cpu_start_ = cpu;
    }
    uint64_t peak = 0;
    for (const auto& ds : d_->datasets) {
      peak = std::max(peak, ds->dfs().PeakStoredBytes());
      ds->dfs().ResetPeak();
    }
    epoch_peak_dfs_bytes_.push_back(peak);
    // Traced runs alternate untraced and traced epochs.
    if (opts_.trace) tracer_->set_enabled(epochs_ % 2 == 1);
    stop_ = NowNs() >= deadline_ || epochs_ >= max_epochs_;
  }

  void Reader(int r) {
    const auto& catalog = rapida::workload::Catalog();
    // Reader r's share: every kReaders-th query of a seeded permutation.
    std::vector<int> all(catalog.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
    rapida::Random shares = rapida::Random(opts_.seed).Split(99);
    for (size_t i = all.size(); i > 1; --i) {
      std::swap(all[i - 1], all[shares.Uniform(i)]);
    }
    std::vector<int> order;
    for (size_t i = static_cast<size_t>(r); i < all.size(); i += kReaders) {
      order.push_back(all[i]);
    }
    // Quotas add up to kReadsPerMutation per epoch.
    const int quota = kReadsPerMutation / kReaders +
                      (r < kReadsPerMutation % kReaders ? 1 : 0);
    rapida::Random rng = rapida::Random(opts_.seed).Split(100 + r);
    size_t next = order.size();
    auto* svc = d_->service.get();
    std::vector<Read>* out = &reads_[static_cast<size_t>(r)];
    std::map<ClassKey, FlatTable>* reps = &reps_[static_cast<size_t>(r)];
    while (!stop_) {
      for (int n = 0; n < quota; ++n) {
        if (next == order.size()) {
          for (size_t i = order.size(); i > 1; --i) {
            std::swap(order[i - 1], order[rng.Uniform(i)]);
          }
          next = 0;
        }
        Read read;
        read.query = order[next++];
        const auto& cq = catalog[static_cast<size_t>(read.query)];
        const uint64_t trace_id = ++*trace_seq_;
        read.traced = tracer_->enabled();
        ScopedSpan query_span(tracer_, "query", trace_id, 0);
        read.k0 = Mutations();
        const int64_t t0 = NowNs();
        rapida::StatusOr<std::future<rapida::service::Response>> admitted =
            rapida::Status::Internal("unset");
        {
          ScopedSpan span(tracer_, "service.submit", trace_id, query_span.id());
          admitted = svc->Submit(d_->reader_sessions[static_cast<size_t>(r)],
                                 {cq.sparql, cq.dataset, 0});
        }
        const int64_t t1 = NowNs();
        if (!admitted.ok()) {
          read.error = admitted.status().ToString();
        } else {
          rapida::service::Response resp;
          {
            ScopedSpan span(tracer_, "service.wait", trace_id, query_span.id());
            resp = admitted->get();
            if (span.id() != 0) {
              RecordServiceSpans(trace_id, span.id(), t1, resp);
            }
          }
          const int64_t t2 = NowNs();
          read.k1 = Mutations();
          read.latency_ms = static_cast<double>(t2 - t0) / 1e6;
          read.submit_ms = static_cast<double>(t1 - t0) / 1e6;
          read.queue_ms = resp.queue_wait_s * 1e3;
          read.exec_ms = resp.exec_wall_s * 1e3;
          read.result_cache_hit = resp.result_cache_hit;
          read.store_hit = resp.store_hit;
          read.batch_size = static_cast<int>(resp.batch_size);
          read.sim_s = resp.sim_seconds;
          if (resp.result.ok()) {
            read.ok = true;
            read.hash = ResultHash(*resp.result);
            reps->try_emplace(ClassKey{read.query, read.hash}, *resp.result);
          } else {
            read.error = resp.result.status().ToString();
          }
        }
        out->push_back(std::move(read));
      }
      barrier_.arrive_and_wait();
    }
  }

  /// Applies mutation k during epoch k + 1, beside that epoch's reads.
  void Writer() {
    for (int k = 0;; ++k) {
      if (k > 0) {
        const int64_t t0 = NowNs();
        rapida::Status st;
        {
          ScopedSpan span(tracer_, "storage.mutate", 0, 0);
          st = d_->service->Mutate("bsbm", MutationBatch(opts_.seed, k));
        }
        mutate_ms_.push_back(static_cast<double>(NowNs() - t0) / 1e6);
        if (!st.ok()) errors_.push_back("mutate: " + st.ToString());
      }
      barrier_.arrive_and_wait();
      if (stop_) return;
    }
  }

  /// The service reports, per response, how long the query queued and
  /// executed; those intervals end at the response, so they are placed
  /// backwards from it, inside the wait span.
  void RecordServiceSpans(uint64_t trace, uint32_t wait_id, int64_t wait_start,
                          const rapida::service::Response& resp) {
    const int64_t end = NowNs();
    const int64_t exec_start = std::max(
        wait_start, end - static_cast<int64_t>(resp.exec_wall_s * 1e9));
    const int64_t queue_start = std::max(
        wait_start, exec_start - static_cast<int64_t>(resp.queue_wait_s * 1e9));
    tracer_->Record(
        {trace, tracer_->NewId(), wait_id, "service.queue", queue_start,
         exec_start});
    tracer_->Record(
        {trace, tracer_->NewId(), wait_id, "service.exec", exec_start, end});
  }

  const Options& opts_;
  Deployment* d_;
  Tracer* tracer_;
  const int64_t deadline_;
  const int max_epochs_;
  std::atomic<uint64_t>* trace_seq_;
  Calibrator* calibrator_;
  const uint64_t base_version_;
  std::barrier<EpochEnd> barrier_{kReaders + 1, EpochEnd{this}};
  // Epoch state, written only by OnEpochEnd.
  int64_t epochs_ = 0;
  int64_t epoch_cpu_start_;
  bool stop_ = false;
  std::vector<double> epoch_cpu_ms_;
  std::vector<uint64_t> epoch_peak_dfs_bytes_;
  std::vector<std::vector<Read>> reads_;                // per reader
  std::vector<std::map<ClassKey, FlatTable>> reps_;     // per reader
  std::vector<double> mutate_ms_;                       // writer only
  std::vector<std::string> errors_;                     // writer only
};

/// Reference answer of catalog query `qi` in normalized form.
rapida::StatusOr<rapida::difftest::NormalizedTable> Oracle(
    size_t qi, rapida::analytics::ReferenceEvaluator* reference,
    const rapida::rdf::Dictionary& dict) {
  const auto& cq = rapida::workload::Catalog()[qi];
  RAPIDA_ASSIGN_OR_RETURN(std::unique_ptr<rapida::sparql::SelectQuery> parsed,
                          rapida::sparql::ParseQuery(cq.sparql));
  RAPIDA_ASSIGN_OR_RETURN(rapida::analytics::BindingTable table,
                          reference->Evaluate(*parsed));
  return rapida::difftest::Normalize(table, dict);
}

int DatasetIndex(const std::string& name) {
  for (int i = 0; i < kNumDatasets; ++i) {
    if (name == kDatasets[i]) return i;
  }
  return -1;
}

using OracleMap =
    std::map<std::pair<int, int64_t>, rapida::difftest::NormalizedTable>;

/// Reference answers for every (query, mutations applied) pair in
/// `needed`. Dataset states are independent, so versions are spread over
/// up to four threads, each replaying the seeded batches on its own shadow
/// datasets (fresh generations of the same seeded graphs).
OracleMap OracleAnswers(uint64_t seed,
                        const std::map<int64_t, std::set<int>>& needed,
                        std::vector<std::string>* errors) {
  const auto& catalog = rapida::workload::Catalog();
  const std::vector<std::pair<int64_t, std::set<int>>> work(needed.begin(),
                                                            needed.end());
  const size_t threads = std::max<size_t>(
      1, std::min<size_t>({4, std::thread::hardware_concurrency(),
                           work.size()}));
  std::vector<OracleMap> partial(threads);
  std::vector<std::vector<std::string>> errs(threads);
  auto worker = [&](size_t t) {
    std::unique_ptr<Dataset> shadow[kNumDatasets];
    int64_t applied = 0;
    for (size_t w = t; w < work.size(); w += threads) {
      const auto& [k, queries] = work[w];
      if (shadow[kBsbm] == nullptr) {
        shadow[kBsbm] = std::make_unique<Dataset>(Generate(kBsbm, seed));
      }
      for (; applied < k; ++applied) {
        rapida::Status st = shadow[kBsbm]->AddTriples(
            MutationBatch(seed, static_cast<int>(applied + 1)));
        if (!st.ok()) errs[t].push_back("shadow mutate: " + st.ToString());
      }
      // One evaluator (and graph index) per dataset state.
      std::unique_ptr<rapida::analytics::ReferenceEvaluator> refs[kNumDatasets];
      for (int q : queries) {
        const int di = DatasetIndex(catalog[q].dataset);
        if (shadow[di] == nullptr) {
          shadow[di] = std::make_unique<Dataset>(Generate(di, seed));
        }
        if (refs[di] == nullptr) {
          refs[di] = std::make_unique<rapida::analytics::ReferenceEvaluator>(
              &shadow[di]->graph());
        }
        auto o = Oracle(static_cast<size_t>(q), refs[di].get(),
                        shadow[di]->dict());
        if (o.ok()) {
          partial[t][{q, k}] = std::move(*o);
        } else {
          errs[t].push_back(catalog[q].id + " oracle: " +
                            o.status().ToString());
        }
      }
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (std::thread& th : pool) th.join();
  OracleMap out;
  for (size_t t = 0; t < threads; ++t) {
    out.merge(partial[t]);
    errors->insert(errors->end(), errs[t].begin(), errs[t].end());
  }
  return out;
}

using Counters = std::vector<std::pair<const char*, uint64_t>>;

/// The service counters a result file reports.
Counters ServiceCounters(rapida::service::QueryService* svc) {
  const auto& m = svc->metrics();
  uint64_t jobs = 0;
  for (const auto& s : svc->scheduler().AllStats()) jobs += s.jobs;
  return {
      {"admitted", m.admitted()},
      {"rejected", m.rejected()},
      {"completed", m.completed()},
      {"failed", m.failed()},
      {"plan_cache_hits", svc->plan_cache().hits()},
      {"plan_cache_misses", svc->plan_cache().misses()},
      {"result_cache_hits", svc->result_cache().hits()},
      {"result_cache_misses", svc->result_cache().misses()},
      {"batches", m.batches()},
      {"batched_queries", m.batched_queries()},
      {"store_hits", m.store_hits()},
      {"store_patched", m.store_patched()},
      {"store_recomputes", m.store_recomputes()},
      {"invalidated_entries", m.invalidated_entries()},
      {"shuffle_local_bytes", m.shuffle_local_bytes()},
      {"shuffle_cross_bytes", m.shuffle_cross_bytes()},
      {"factorized_groups", m.factorized_groups()},
      {"factorized_flat_rows", m.factorized_flat_rows()},
      {"jobs", jobs},
  };
}

/// Untimed: one cold pass over the catalog fills the plan and result
/// caches and the store, which a long-running service pays once. The timed
/// loop then measures the steady state, where only mutations make reads
/// miss.
void WarmUp(Deployment* d, std::vector<std::string>* errors) {
  for (const auto& cq : rapida::workload::Catalog()) {
    rapida::service::Response r =
        d->service->Execute(d->reader_sessions[0], {cq.sparql, cq.dataset, 0});
    if (!r.result.ok()) {
      errors->push_back(cq.id + " (warm-up): " + r.result.status().ToString());
    }
  }
  for (const auto& ds : d->datasets) ds->dfs().ResetPeak();
}

void RemoveStore(const Options& opts, int rep) {
  std::error_code ec;
  fs::remove_all(opts.scratch_dir + "/store-" + std::to_string(rep), ec);
}

}  // namespace

int RunServeWorkload(const Options& opts) {
  Tracer tracer;
  tracer.set_enabled(opts.trace);
  std::error_code ec;
  fs::create_directories(opts.scratch_dir, ec);

  // ---- set-up, repeated; the last deployment runs the first round ----
  std::vector<SetupTimes> setups;
  std::unique_ptr<Deployment> d;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    d.reset();
    if (rep > 0) RemoveStore(opts, rep - 1);
    SetupTimes t;
    d = Deploy(opts, rep, &tracer, &t);
    if (d == nullptr) return 1;
    setups.push_back(t);
  }
  tracer.set_enabled(false);
  const auto& catalog = rapida::workload::Catalog();
  uint64_t triples[kNumDatasets];
  for (int i = 0; i < kNumDatasets; ++i) {
    triples[i] = d->datasets[i]->graph().size();
  }

  // ---- timed rounds, until --seconds of timed loop are used ----
  // Peak RSS covers set-up, warm-ups and the timed loops; the per-round
  // normalization of results for the output check is excluded.
  double peak_rss_mb = 0;
  std::vector<std::string> errors;
  // Reads per reader and round; kept apart until the loop ends so that a
  // growing array does not put host-speed-dependent jumps into peak RSS.
  std::vector<std::vector<Read>> reads;
  // Distinct results, normalized and kept as text: (query, text) -> id.
  std::map<std::pair<int, std::string>, int> result_ids;
  std::vector<double> mutate_ms, epoch_cpu_ms;
  Calibrator calibrator;
  std::vector<uint64_t> epoch_peak_dfs_bytes;
  Counters counters;
  std::atomic<uint64_t> trace_seq{0};
  int64_t mutations = 0, timed_ns = 0;
  const int64_t budget_ns = static_cast<int64_t>(opts.seconds * 1e9);
  const CpuTicks ticks_start = ReadCpuTicks();
  int rounds = 0;
  for (; rounds == 0 || timed_ns < budget_ns; ++rounds) {
    const int rep = kSetupReps - 1 + rounds;
    if (d == nullptr) {
      SetupTimes ignored;
      d = Deploy(opts, rep, &tracer, &ignored);
      if (d == nullptr) return 1;
    }
    WarmUp(d.get(), &errors);
    const Counters warm = ServiceCounters(d->service.get());
    tracer.set_enabled(false);  // the first epoch of a round is untraced
    const int64_t start = NowNs();
    const int64_t calib_start = calibrator.wall_ns();
    ServeRun run(opts, d.get(), &tracer, start + (budget_ns - timed_ns),
                 kEpochsPerRound, &trace_seq, &calibrator);
    run.Run();
    timed_ns += NowNs() - start - (calibrator.wall_ns() - calib_start);
    peak_rss_mb = std::max(peak_rss_mb, PeakRssMb());
    tracer.set_enabled(false);

    // Counters of the timed loop only: the round's warm-up is taken out.
    Counters round_counters = ServiceCounters(d->service.get());
    if (counters.empty()) {
      counters = warm;
      for (auto& c : counters) c.second = 0;
    }
    for (size_t i = 0; i < counters.size(); ++i) {
      counters[i].second += round_counters[i].second - warm[i].second;
    }
    mutations += run.Mutations();
    mutate_ms.insert(mutate_ms.end(), run.mutate_ms().begin(),
                     run.mutate_ms().end());
    epoch_cpu_ms.insert(epoch_cpu_ms.end(), run.epoch_cpu_ms().begin(),
                        run.epoch_cpu_ms().end());
    epoch_peak_dfs_bytes.insert(epoch_peak_dfs_bytes.end(),
                                run.epoch_peak_dfs_bytes().begin(),
                                run.epoch_peak_dfs_bytes().end());
    errors.insert(errors.end(), run.errors().begin(), run.errors().end());
    // Each distinct result of the round is normalized once, against the
    // dictionary its ids belong to, while the round's datasets are alive;
    // the same result in a later round maps to the same id.
    d->service.reset();
    std::map<ClassKey, int> round_ids;
    for (const auto& per_reader : run.reps()) {
      for (const auto& [key, table] : per_reader) {
        if (round_ids.count(key) != 0) continue;
        const int di = DatasetIndex(catalog[key.query].dataset);
        std::string text = rapida::difftest::SerializeNormalized(
            rapida::difftest::Normalize(table.Expand(),
                                        d->datasets[di]->dict()));
        const int next_id = static_cast<int>(result_ids.size());
        round_ids[key] =
            result_ids.try_emplace({key.query, std::move(text)}, next_id)
                .first->second;
      }
    }
    for (auto& per_reader : run.reads()) {
      for (Read& r : per_reader) {
        if (r.ok) r.result = round_ids.at(ClassKey{r.query, r.hash});
      }
      reads.push_back(std::move(per_reader));
    }
    d.reset();
    RemoveStore(opts, rep);
    ResetPeakRss();
  }
  const CpuTicks ticks_end = ReadCpuTicks();
  std::vector<Read> all;
  for (auto& v : reads) {
    for (Read& r : v) all.push_back(std::move(r));
  }
  reads.clear();

  // ---- front-end timing (traced run only, outside the timed window) ----
  if (opts.trace) {
    tracer.set_enabled(true);
    uint64_t trace_id = 1ull << 40;
    for (int rep = 0; rep < kFrontendReps; ++rep) {
      for (const auto& cq : catalog) {
        ScopedSpan q(&tracer, "frontend", ++trace_id, 0);
        std::unique_ptr<rapida::sparql::SelectQuery> parsed;
        {
          ScopedSpan span(&tracer, "sparql.parse", trace_id, q.id());
          auto p = rapida::sparql::ParseQuery(cq.sparql);
          if (p.ok()) parsed = std::move(*p);
        }
        if (parsed == nullptr) continue;
        rapida::StatusOr<rapida::analytics::AnalyticalQuery> aq =
            rapida::Status::Internal("unset");
        {
          ScopedSpan span(&tracer, "analytics.analyze", trace_id, q.id());
          aq = rapida::analytics::AnalyzeQuery(*parsed);
        }
        if (!aq.ok()) continue;
        ScopedSpan span(&tracer, "plan.plan", trace_id, q.id());
        auto plan = rapida::plan::PlanForEngine(
            "RAPIDAnalytics", *aq, nullptr, rapida::engine::EngineOptions());
        (void)plan;
      }
    }
    tracer.set_enabled(false);
  }
  const std::vector<Span> spans =
      opts.trace ? tracer.spans() : std::vector<Span>();

  // ---- output check against the oracle, per version seen ----
  // Versions each query must be answered at: k in [k0, k1] of each read
  // (only bsbm is mutated; the others are always at k = 0). Every round
  // replays the same seeded batches from the same base datasets, so one
  // oracle serves all rounds.
  std::map<int64_t, std::set<int>> needed;
  std::map<int, std::set<int64_t>> result_versions;
  for (Read& r : all) {
    if (DatasetIndex(catalog[r.query].dataset) != kBsbm) r.k0 = r.k1 = 0;
    if (!r.ok) continue;
    for (int64_t k = r.k0; k <= r.k1; ++k) {
      needed[k].insert(r.query);
      result_versions[r.result].insert(k);
    }
  }
  const OracleMap oracle = OracleAnswers(opts.seed, needed, &errors);
  std::vector<const std::pair<const std::pair<int, std::string>, int>*> by_id(
      result_ids.size());
  for (const auto& entry : result_ids) by_id[entry.second] = &entry;
  std::set<std::pair<int, int64_t>> matches;
  for (const auto& [id, versions] : result_versions) {
    const int query = by_id[id]->first.first;
    rapida::difftest::NormalizedTable got;
    if (!rapida::difftest::ParseNormalized(by_id[id]->first.second, &got)) {
      errors.push_back(catalog[query].id + ": result does not re-parse");
      continue;
    }
    for (int64_t k : versions) {
      auto o = oracle.find({query, k});
      if (o != oracle.end() &&
          rapida::difftest::CompareNormalized(o->second, got).empty()) {
        matches.insert({id, k});
      }
    }
  }
  result_ids.clear();

  std::vector<bool> correct(all.size(), false);
  int64_t wrong = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    const Read& r = all[i];
    if (!r.ok) {
      if (errors.size() < 50) {
        errors.push_back(catalog[r.query].id + ": " + r.error);
      }
      continue;
    }
    for (int64_t k = r.k0; k <= r.k1 && !correct[i]; ++k) {
      correct[i] = matches.count({r.result, k}) != 0;
    }
    if (!correct[i]) {
      ++wrong;
      if (errors.size() < 50) {
        errors.push_back(catalog[r.query].id + " at mutation " +
                         std::to_string(r.k0) + ".." + std::to_string(r.k1) +
                         ": result differs from the reference");
      }
    }
  }

  // ---- raw result file ----
  JsonWriter w;
  w.BeginObject();
  w.Key("context");
  w.BeginObject();
  WriteContext(&w, opts, ticks_start, ticks_end);
  w.Field("exec_threads", 1);
  w.Field("num_shards", 0);
  w.Field("sharding", "none");
  w.Field("workers", 2);
  w.Field("readers", kReaders);
  w.Field("reads_per_mutation", kReadsPerMutation);
  w.Field("epochs_per_round", kEpochsPerRound);
  w.Key("triples");
  w.BeginObject();
  for (int i = 0; i < kNumDatasets; ++i) w.Field(kDatasets[i], triples[i]);
  w.EndObject();
  w.Field("queries", static_cast<uint64_t>(catalog.size()));
  w.EndObject();

  w.BeginArray("setup");
  for (const SetupTimes& t : setups) {
    w.BeginObject();
    w.Field("generate_s", t.generate_s);
    w.Field("dataset_s", t.dataset_s);
    w.Field("vp_s", t.vp_s);
    w.Field("tg_s", t.tg_s);
    w.Field("service_s", t.service_s);
    w.Field("total_s",
            t.generate_s + t.dataset_s + t.vp_s + t.tg_s + t.service_s);
    w.Field("cpu_s", t.cpu_s);
    w.EndObject();
  }
  w.EndArray();

  w.Key("check");
  w.BeginObject();
  w.Field("oracle_versions", static_cast<uint64_t>(needed.size()));
  w.Field("oracle_answers", static_cast<uint64_t>(oracle.size()));
  w.Field("wrong", wrong);
  w.EndObject();

  w.Field("timed_wall_s", Seconds(0, timed_ns));
  w.Field("rounds", rounds);
  w.Field("mutations", mutations);

  w.Key("queries");
  w.BeginObject();
  auto column = [&](const char* key, auto get) {
    w.BeginArray(key);
    for (size_t i = 0; i < all.size(); ++i) w.Value(get(i, all[i]));
    w.EndArray();
  };
  column("query", [&](size_t, const Read& r) { return catalog[r.query].id; });
  column("dataset",
         [&](size_t, const Read& r) { return catalog[r.query].dataset; });
  column("traced", [](size_t, const Read& r) { return r.traced; });
  column("ok", [](size_t, const Read& r) { return r.ok; });
  column("correct", [&](size_t i, const Read&) { return bool(correct[i]); });
  column("latency_ms", [](size_t, const Read& r) { return r.latency_ms; });
  column("submit_ms", [](size_t, const Read& r) { return r.submit_ms; });
  column("queue_ms", [](size_t, const Read& r) { return r.queue_ms; });
  column("exec_ms", [](size_t, const Read& r) { return r.exec_ms; });
  column("sim_s", [](size_t, const Read& r) { return r.sim_s; });
  column("result_cache_hit",
         [](size_t, const Read& r) { return r.result_cache_hit; });
  column("store_hit", [](size_t, const Read& r) { return r.store_hit; });
  column("batch_size", [](size_t, const Read& r) { return r.batch_size; });
  w.EndObject();

  w.Array("mutate_ms", mutate_ms);
  w.Array("epoch_peak_dfs_bytes", epoch_peak_dfs_bytes);
  w.Array("epoch_cpu_ms", epoch_cpu_ms);
  w.Array("calib_ms", calibrator.ms());
  w.Key("service");
  w.BeginObject();
  for (const auto& [name, value] : counters) w.Field(name, value);
  w.EndObject();

  w.Array("errors", errors);
  w.Field("peak_rss_mb", peak_rss_mb);
  if (opts.trace) w.Spans(spans);
  w.EndObject();
  if (!WriteFile(opts.out_path, w.str())) {
    std::fprintf(stderr, "cannot write %s\n", opts.out_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
