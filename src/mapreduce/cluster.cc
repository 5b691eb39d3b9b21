#include "mapreduce/cluster.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <mutex>
#include <utility>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace rapida::mr {

namespace {

/// Map-side sink: appends key/value bytes to the task's columnar store
/// (contiguous buffers, no per-record heap strings), stamps the key
/// prefix and hash columns once, and accounts serialized bytes in the
/// emit loop (cheaper than a second pass over the buffer).
class ColumnarMapContext : public MapContext {
 public:
  explicit ColumnarMapContext(ColumnarRecords* out) : out_(out) {}
  void Emit(std::string_view key, std::string_view value) override {
    bytes_ += key.size() + value.size() + 2;  // == Record::Bytes()
    out_->Append(key, value);
  }
  uint64_t bytes() const { return bytes_; }

 private:
  ColumnarRecords* out_;
  uint64_t bytes_ = 0;
};

class ColumnarReduceContext : public ReduceContext {
 public:
  explicit ColumnarReduceContext(ColumnarRecords* out) : out_(out) {}
  void Emit(std::string_view key, std::string_view value) override {
    out_->Append(key, value);
  }

 private:
  ColumnarRecords* out_;
};

/// Half-open range of same-key records inside a sorted partition.
struct GroupSpan {
  size_t begin = 0;
  size_t end = 0;
};

/// Stable-sorts `records` by (prefix, key) in place and returns the group
/// spans in ascending key order. The precomputed 8-byte prefix resolves
/// the vast majority of comparisons on one uint64_t; ties fall back to the
/// full key bytes, so the order is exactly `a.key < b.key`. Stability
/// keeps each group's values in arrival order, so the result is exactly
/// what the old per-key grouping produced.
std::vector<GroupSpan> SortAndGroup(std::vector<Record>* records) {
  std::stable_sort(records->begin(), records->end(), RecordKeyLess);
  std::vector<GroupSpan> groups;
  size_t i = 0;
  while (i < records->size()) {
    size_t j = i + 1;
    while (j < records->size() &&
           RecordKeyEq((*records)[j], (*records)[i])) {
      ++j;
    }
    groups.push_back(GroupSpan{i, j});
    i = j;
  }
  return groups;
}

/// Zero-copy view of one group's values inside the sorted records.
ValueSpan SpanValues(const std::vector<Record>& records,
                     const GroupSpan& span) {
  return ValueSpan(records.data() + span.begin, records.data() + span.end);
}

/// One split row: the record (with its pre-stamped key_hash / key_prefix
/// columns) plus the index of the input file it came from.
struct TaggedRecord {
  const Record* record = nullptr;
  int tag = 0;
};

/// Run-length home shards of a record sequence: the records from the
/// previous run's end up to `end` live on `shard`.
struct ShardRun {
  size_t end = 0;
  int shard = 0;
};

/// Extends `runs` so that the records up to `end` live on `shard`. A new
/// run starts only when the shard changes, so one shard is one run.
void ExtendRuns(std::vector<ShardRun>* runs, size_t end, int shard) {
  if (!runs->empty() && runs->back().shard == shard) {
    runs->back().end = end;
  } else if (end > (runs->empty() ? 0 : runs->back().end)) {
    runs->push_back(ShardRun{end, shard});
  }
}

/// One mapper's private results, merged into JobStats at the map barrier.
struct MapTaskResult {
  std::vector<Record> output;  // map-only jobs: this task's final records
  std::vector<ShardRun> output_homes;  // map-only jobs: homes of `output`
  /// Columnar stores backing every record this task still exposes (its
  /// shuffle chunks or, for map-only jobs, `output`). Kept alive until
  /// the job's output is written.
  std::vector<std::shared_ptr<ColumnarRecords>> stores;
  uint64_t map_output_records = 0;
  uint64_t map_output_bytes = 0;
  uint64_t shuffle_records = 0;  // post-combine
  uint64_t shuffle_bytes = 0;
  uint64_t shuffle_local_bytes = 0;  // home shard == owner shard
  uint64_t shuffle_cross_bytes = 0;  // home shard != owner shard
  uint64_t factorized_groups = 0;     // groups emitted by map/map_finish
  uint64_t factorized_flat_rows = 0;  // flat rows those groups stand for
};

/// One shuffle partition while mappers are filling it: chunks of records
/// tagged with the producing task index, appended under the partition's
/// own mutex (mappers touching different partitions never contend).
struct ShufflePartition {
  std::mutex mu;
  std::vector<std::pair<size_t, std::vector<Record>>> chunks;
  uint64_t num_records = 0;
};

}  // namespace

Cluster::Cluster(const ClusterConfig& config, Dfs* dfs)
    : config_(config), dfs_(dfs) {}

Cluster::~Cluster() = default;

util::ThreadPool* Cluster::pool() {
  int threads = config_.exec_threads;
  if (threads <= 0) threads = util::ThreadPool::HardwareThreads();
  if (threads <= 1) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (pool_ == nullptr) {
    // The calling thread joins every ParallelFor, so exec_threads = N
    // means N-way concurrency from N-1 workers plus the caller.
    pool_ = std::make_unique<util::ThreadPool>(threads - 1);
  }
  return pool_.get();
}

void Cluster::ResetHistory() {
  std::lock_guard<std::mutex> lock(mu_);
  history_.clear();
}

StatusOr<JobStats> Cluster::Run(const JobConfig& job) {
  RAPIDA_CHECK(job.map != nullptr) << "job '" << job.name << "' has no map fn";
  const int S = std::max(config_.num_shards, 1);
  if (observer_ != nullptr) {
    RAPIDA_RETURN_IF_ERROR(observer_->OnPhase(job.name, "setup"));
  }
  const auto wall_start = std::chrono::steady_clock::now();
  JobStats stats;
  stats.name = job.name;
  stats.map_only = job.reduce == nullptr;
  stats.num_shards = S;
  stats.shard_output_bytes.assign(static_cast<size_t>(S), 0);

  // ---- read inputs & form splits ----
  // Each input file contributes ceil(stored/block) splits; records are
  // assigned to splits as contiguous chunks of their file (record i goes
  // to split base + i / per_split), which matches the "many mappers scan
  // disjoint blocks" behaviour closely enough for cost purposes while
  // keeping execution deterministic. The shard count never changes split
  // formation — that is what keeps results byte-identical at any shard
  // count (per-task combiner state and emission order are untouched).
  struct Split {
    std::vector<TaggedRecord> records;
  };
  std::vector<Split> splits;
  for (size_t tag = 0; tag < job.inputs.size(); ++tag) {
    RAPIDA_ASSIGN_OR_RETURN(const Dfs::File* file, dfs_->Open(job.inputs[tag]));
    stats.input_records += file->records.size();
    stats.input_bytes += file->stored_bytes;
    int n_splits = static_cast<int>(
        (file->stored_bytes + config_.exec_split_bytes - 1) /
        config_.exec_split_bytes);
    n_splits = std::max(n_splits, 1);
    size_t base = splits.size();
    splits.resize(base + n_splits);
    size_t per_split =
        (file->records.size() + n_splits - 1) / std::max(n_splits, 1);
    per_split = std::max<size_t>(per_split, 1);
    for (size_t i = 0; i < file->records.size(); ++i) {
      splits[base + i / per_split].records.push_back(
          TaggedRecord{&file->records[i], static_cast<int>(tag)});
    }
  }
  if (splits.empty()) splits.resize(1);
  stats.num_mappers = static_cast<int>(splits.size());

  util::ThreadPool* workers = pool();
  // Shuffle partitions: P per shard, one per executor, so the reduce side
  // can use the full pool at any shard count. A key goes to partition
  // OwnerShard(h, S) * P + (h / S) % P, so partition p belongs to shard
  // p / P. Partition choice only decides which partition groups a key;
  // outputs are re-merged into global key order below, so it never
  // affects results or counters.
  const size_t P = workers ? workers->num_threads() + 1 : 1;
  const size_t num_partitions =
      stats.map_only ? 0 : static_cast<size_t>(S) * P;

  // ---- map phase (+ optional combine, partitioning per mapper) ----
  // Mappers run concurrently. Each emits into a task-local buffer,
  // combines locally, then scatters its output into the shared shuffle
  // partitions; only that last append takes a (per-partition) lock.
  std::vector<MapTaskResult> task_results(splits.size());
  std::vector<ShufflePartition> partitions(num_partitions);
  auto run_tasks = [workers](size_t n,
                             const std::function<void(size_t)>& fn) {
    if (workers != nullptr && n > 1) {
      workers->ParallelFor(n, fn);
    } else {
      for (size_t i = 0; i < n; ++i) fn(i);
    }
  };

  auto map_body = [&](size_t task) {
    Split& split = splits[task];
    MapTaskResult& result = task_results[task];
    auto map_store = std::make_shared<ColumnarRecords>();
    map_store->Reserve(split.records.size(), 0);
    ColumnarMapContext ctx(map_store.get());
    // An emitted record's home is the shard its producing input record
    // lives on under the sharding scheme: the map fn is called once per
    // record, so the emissions since the last call are exactly that
    // record's. The task itself runs on the shard homing the plurality of
    // its records (lowest id wins ties); map_finish flushes (Map.clean())
    // and combined records are re-emissions of state that lives there.
    std::vector<uint64_t> votes(static_cast<size_t>(S), 0);
    std::vector<ShardRun> homes;
    for (const TaggedRecord& tr : split.records) {
      const int home =
          AssignShard(tr.record->key_hash, config_.sharding, S);
      votes[static_cast<size_t>(home)]++;
      job.map(*tr.record, tr.tag, &ctx);
      ExtendRuns(&homes, map_store->size(), home);
    }
    const int task_shard = static_cast<int>(
        std::max_element(votes.begin(), votes.end()) - votes.begin());
    if (job.map_finish) job.map_finish(&ctx);
    ExtendRuns(&homes, map_store->size(), task_shard);
    result.map_output_records = map_store->size();
    result.map_output_bytes = ctx.bytes();
    result.factorized_groups = ctx.factorized_groups();
    result.factorized_flat_rows = ctx.factorized_flat_rows();
    // Emission is done: the store is frozen, so record views are stable.
    std::vector<Record> map_out;
    map_out.reserve(map_store->size());
    map_store->AppendRecordViews(&map_out);

    if (stats.map_only) {
      result.output = std::move(map_out);
      result.output_homes = std::move(homes);
      result.stores.push_back(std::move(map_store));
      return;
    }

    if (job.combine) {
      // Combined output gets its own store so the raw-emission store (and
      // its pre-combine bytes) dies at the end of this scope.
      auto combine_store = std::make_shared<ColumnarRecords>();
      ColumnarReduceContext cctx(combine_store.get());
      std::vector<GroupSpan> groups = SortAndGroup(&map_out);
      for (const GroupSpan& span : groups) {
        job.combine(map_out[span.begin].key, SpanValues(map_out, span),
                    &cctx);
      }
      map_out.clear();
      map_out.reserve(combine_store->size());
      combine_store->AppendRecordViews(&map_out);
      map_store = std::move(combine_store);
      homes.clear();
      ExtendRuns(&homes, map_out.size(), task_shard);
    }
    result.stores.push_back(std::move(map_store));

    // Scatter into per-partition buckets, then one locked append each.
    // Partition choice reuses the hash stamped at Emit — no per-record
    // std::hash here. Each record flows from its home shard to the shard
    // owning its key; the byte stays local iff the two are the same.
    std::vector<std::vector<Record>> buckets(num_partitions);
    size_t begin = 0;
    for (const ShardRun& run : homes) {
      for (size_t i = begin; i < run.end; ++i) {
        const Record& r = map_out[i];
        const int owner = OwnerShard(r.key_hash, S);
        result.shuffle_records += 1;
        result.shuffle_bytes += r.Bytes();
        if (owner == run.shard) {
          result.shuffle_local_bytes += r.Bytes();
        } else {
          result.shuffle_cross_bytes += r.Bytes();
        }
        const size_t p = static_cast<size_t>(owner) * P +
                         (P == 1 ? 0 : (r.key_hash / S) % P);
        buckets[p].push_back(r);
      }
      begin = run.end;
    }
    for (size_t p = 0; p < num_partitions; ++p) {
      if (buckets[p].empty()) continue;
      std::lock_guard<std::mutex> lock(partitions[p].mu);
      partitions[p].num_records += buckets[p].size();
      partitions[p].chunks.emplace_back(task, std::move(buckets[p]));
    }
  };

  run_tasks(splits.size(), map_body);

  // ---- map barrier: merge per-task accumulators ----
  if (observer_ != nullptr && !stats.map_only) {
    RAPIDA_RETURN_IF_ERROR(observer_->OnPhase(job.name, "reduce"));
  }
  for (const MapTaskResult& r : task_results) {
    stats.map_output_records += r.map_output_records;
    stats.map_output_bytes += r.map_output_bytes;
    stats.shuffle_records += r.shuffle_records;
    stats.shuffle_bytes += r.shuffle_bytes;
    stats.shuffle_local_bytes += r.shuffle_local_bytes;
    stats.shuffle_cross_bytes += r.shuffle_cross_bytes;
    stats.factorized_groups += r.factorized_groups;
    stats.factorized_flat_rows += r.factorized_flat_rows;
  }

  std::vector<Record> output;
  std::vector<std::shared_ptr<ColumnarRecords>> output_stores;
  // Owner shard of every output record: map-only records stay on their
  // home shard; reduce records belong to the shard owning the group key.
  std::vector<ShardRun> output_owners;
  if (stats.map_only) {
    // Map-only job: mapper outputs concatenate in split order; the output
    // adopts every task's columnar store.
    size_t total = 0;
    for (const MapTaskResult& r : task_results) total += r.output.size();
    output.reserve(total);
    for (MapTaskResult& r : task_results) {
      const size_t base = output.size();
      output.insert(output.end(), r.output.begin(), r.output.end());
      for (const ShardRun& run : r.output_homes) {
        ExtendRuns(&output_owners, base + run.end, run.shard);
      }
      for (auto& store : r.stores) output_stores.push_back(std::move(store));
    }
  } else {
    // ---- group phase: per partition, flatten in task order, sort,
    // group-adjacent. Runs one task per partition. ----
    std::vector<std::vector<Record>> part_records(num_partitions);
    std::vector<std::vector<GroupSpan>> part_groups(num_partitions);
    run_tasks(num_partitions, [&](size_t p) {
      ShufflePartition& part = partitions[p];
      std::sort(part.chunks.begin(), part.chunks.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      std::vector<Record>& flat = part_records[p];
      flat.reserve(part.num_records);
      for (auto& [task, chunk] : part.chunks) {
        for (Record& r : chunk) flat.push_back(std::move(r));
      }
      part.chunks.clear();
      part_groups[p] = SortAndGroup(&flat);
    });

    size_t distinct_keys = 0;
    for (const auto& groups : part_groups) distinct_keys += groups.size();
    stats.num_reducers =
        std::min<int>(config_.reduce_slots(),
                      std::max<int>(1, static_cast<int>(distinct_keys)));

    if (job.reduce_parallel_safe && workers != nullptr &&
        num_partitions > 1) {
      // ---- parallel reduce: each partition reduces its own key groups,
      // recording the output span per group; spans are then concatenated
      // in ascending input-key order, which reproduces the serial path's
      // output byte-for-byte. ----
      struct ReducedGroup {
        uint64_t key_prefix;   // input-key sort key, prefix first
        std::string_view key;  // view into part_records (stable)
        size_t part;
        size_t begin, end;  // span in part_out[part]
      };
      std::vector<std::vector<Record>> part_out(num_partitions);
      std::vector<std::shared_ptr<ColumnarRecords>> part_stores(
          num_partitions);
      std::vector<std::vector<ReducedGroup>> part_spans(num_partitions);
      std::vector<uint64_t> part_fgroups(num_partitions, 0);
      std::vector<uint64_t> part_frows(num_partitions, 0);
      run_tasks(num_partitions, [&](size_t p) {
        std::vector<Record>& records = part_records[p];
        part_stores[p] = std::make_shared<ColumnarRecords>();
        ColumnarRecords& store = *part_stores[p];
        ColumnarReduceContext rctx(&store);
        part_spans[p].reserve(part_groups[p].size());
        for (const GroupSpan& span : part_groups[p]) {
          size_t before = store.size();
          const Record& head = records[span.begin];
          job.reduce(head.key, SpanValues(records, span), &rctx);
          part_spans[p].push_back(ReducedGroup{head.key_prefix, head.key, p,
                                               before, store.size()});
        }
        part_fgroups[p] = rctx.factorized_groups();
        part_frows[p] = rctx.factorized_flat_rows();
        // This partition's emissions are done; materialize stable views.
        part_out[p].reserve(store.size());
        store.AppendRecordViews(&part_out[p]);
      });
      for (size_t p = 0; p < num_partitions; ++p) {
        stats.factorized_groups += part_fgroups[p];
        stats.factorized_flat_rows += part_frows[p];
      }
      std::vector<ReducedGroup> all_groups;
      all_groups.reserve(distinct_keys);
      for (const auto& spans : part_spans) {
        all_groups.insert(all_groups.end(), spans.begin(), spans.end());
      }
      std::sort(all_groups.begin(), all_groups.end(),
                [](const ReducedGroup& a, const ReducedGroup& b) {
                  if (a.key_prefix != b.key_prefix) {
                    return a.key_prefix < b.key_prefix;
                  }
                  return a.key < b.key;
                });
      size_t total = 0;
      for (const auto& out : part_out) total += out.size();
      output.reserve(total);
      for (const ReducedGroup& g : all_groups) {
        output.insert(output.end(), part_out[g.part].begin() + g.begin,
                      part_out[g.part].begin() + g.end);
        ExtendRuns(&output_owners, output.size(),
                   static_cast<int>(g.part / P));
      }
      output_stores = std::move(part_stores);
    } else {
      // ---- serial reduce: k-way merge of the sorted partitions invokes
      // the reduce fn once per key in *global* key order — identical to
      // the single-threaded runtime, so reduce fns that mutate shared
      // state (e.g. dictionary interning in aggregation finalizers) see
      // the exact same sequence of calls. ----
      auto reduce_store = std::make_shared<ColumnarRecords>();
      ColumnarReduceContext rctx(reduce_store.get());
      std::vector<size_t> next(num_partitions, 0);
      for (;;) {
        size_t best = num_partitions;
        const Record* best_head = nullptr;
        for (size_t p = 0; p < num_partitions; ++p) {
          if (next[p] >= part_groups[p].size()) continue;
          const Record& head =
              part_records[p][part_groups[p][next[p]].begin];
          if (best_head == nullptr || RecordKeyLess(head, *best_head)) {
            best = p;
            best_head = &head;
          }
        }
        if (best == num_partitions) break;
        const GroupSpan& span = part_groups[best][next[best]++];
        job.reduce(part_records[best][span.begin].key,
                   SpanValues(part_records[best], span), &rctx);
        ExtendRuns(&output_owners, reduce_store->size(),
                   static_cast<int>(best / P));
      }
      stats.factorized_groups += rctx.factorized_groups();
      stats.factorized_flat_rows += rctx.factorized_flat_rows();
      output.reserve(reduce_store->size());
      reduce_store->AppendRecordViews(&output);
      output_stores.push_back(std::move(reduce_store));
    }
  }

  // ---- output bytes, in total and per owning shard ----
  stats.output_records = output.size();
  std::vector<uint64_t> shard_bytes(static_cast<size_t>(S), 0);
  size_t begin = 0;
  for (const ShardRun& run : output_owners) {
    for (size_t i = begin; i < run.end; ++i) {
      shard_bytes[static_cast<size_t>(run.shard)] += output[i].Bytes();
    }
    begin = run.end;
  }
  auto stored_bytes = [&job](uint64_t bytes) {
    if (!job.output_options.compressed) return bytes;
    return static_cast<uint64_t>(static_cast<double>(bytes) *
                                 job.output_options.compression_ratio);
  };
  uint64_t raw_output_bytes = 0;
  for (uint64_t b : shard_bytes) raw_output_bytes += b;
  stats.output_bytes = stored_bytes(raw_output_bytes);

  if (!job.output.empty()) {
    for (int s = 0; s < S; ++s) {
      stats.shard_output_bytes[static_cast<size_t>(s)] =
          stored_bytes(shard_bytes[static_cast<size_t>(s)]);
    }
    RecordBatch batch;
    batch.records = std::move(output);
    batch.columns = std::move(output_stores);
    RAPIDA_RETURN_IF_ERROR(
        dfs_->Write(job.output, std::move(batch), job.output_options));
  }

  stats.sim_seconds = EstimateSimSeconds(stats);
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (observer_ != nullptr) observer_->OnJobComplete(&stats);
  {
    std::lock_guard<std::mutex> lock(mu_);
    history_.push_back(stats);
  }
  return stats;
}

double Cluster::EstimateSimSeconds(const JobStats& stats) const {
  const double mb = 1024.0 * 1024.0;
  const double scale = config_.bytes_scale;

  // Scaled quantities: the executed dataset is a 1/scale sample of the
  // modeled one.
  double input_bytes = static_cast<double>(stats.input_bytes) * scale;
  double input_records = static_cast<double>(stats.input_records) * scale;
  double shuffle_bytes = static_cast<double>(stats.shuffle_bytes) * scale;
  double shuffle_records = static_cast<double>(stats.shuffle_records) * scale;
  double output_bytes = static_cast<double>(stats.output_bytes) * scale;

  // Map phase: one mapper per (scaled) block; mappers run in waves over
  // the available slots. Compressed inputs produce fewer mappers — the
  // paper's ORC parallelism effect. Sharded clusters expose
  // num_shards * slots_per_node slots (the shards are the nodes).
  int eff_mappers = static_cast<int>(
      (input_bytes + static_cast<double>(config_.block_size) - 1) /
      static_cast<double>(config_.block_size));
  eff_mappers = std::max(eff_mappers, 1);
  int parallel_maps = std::max(std::min(eff_mappers, config_.map_slots()), 1);
  double map_read_s =
      (input_bytes / mb) / (config_.io_mb_per_s * parallel_maps);
  double map_cpu_s =
      input_records * config_.cpu_us_per_record * 1e-6 / parallel_maps;

  double shuffle_s = 0;
  double reduce_cpu_s = 0;
  int parallel_reds = 1;
  if (!stats.map_only) {
    // A single reduce group (GROUP BY ALL) cannot parallelize; otherwise
    // the scaled key space fills the reduce slots.
    parallel_reds = stats.num_reducers <= 1
                        ? 1
                        : std::max(config_.reduce_slots(), 1);
    if (config_.num_shards > 1) {
      // Shard-aware shuffle pricing: only bytes that cross a shard boundary
      // pay the network rate; shard-local hand-offs move at disk speed.
      // Stats whose split doesn't reconcile (hand-built ablation stats)
      // conservatively price everything as crossing.
      double cross_bytes =
          static_cast<double>(stats.shuffle_cross_bytes) * scale;
      double local_bytes =
          static_cast<double>(stats.shuffle_local_bytes) * scale;
      if (stats.shuffle_local_bytes + stats.shuffle_cross_bytes !=
          stats.shuffle_bytes) {
        cross_bytes = shuffle_bytes;
        local_bytes = 0;
      }
      shuffle_s = (cross_bytes / mb) * config_.sort_factor /
                      (config_.net_mb_per_s * parallel_reds) +
                  (local_bytes / mb) * config_.sort_factor /
                      (config_.io_mb_per_s * parallel_reds);
    } else {
      shuffle_s = (shuffle_bytes / mb) * config_.sort_factor /
                  (config_.net_mb_per_s * parallel_reds);
    }
    reduce_cpu_s =
        shuffle_records * config_.cpu_us_per_record * 1e-6 / parallel_reds;
  }

  double write_s = (output_bytes / mb) / (config_.io_mb_per_s * parallel_reds);

  return config_.per_job_overhead_s + map_read_s + map_cpu_s + shuffle_s +
         reduce_cpu_s + write_s;
}

}  // namespace rapida::mr
