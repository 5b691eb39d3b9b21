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

/// One mapper's private results, merged into JobStats at the map barrier.
struct MapTaskResult {
  std::vector<Record> output;  // map-only jobs: this task's final records
  /// Sharded map-only jobs: home shard of each `output` record (parallel
  /// array), for per-shard output segments.
  std::vector<int> output_homes;
  /// Columnar stores backing every record this task still exposes (its
  /// shuffle chunks or, for map-only jobs, `output`). Kept alive until
  /// the job's output is written.
  std::vector<std::shared_ptr<ColumnarRecords>> stores;
  uint64_t map_output_records = 0;
  uint64_t map_output_bytes = 0;
  uint64_t shuffle_records = 0;  // post-combine
  uint64_t shuffle_bytes = 0;
  uint64_t shuffle_local_bytes = 0;  // sharded: stayed on home shard
  uint64_t shuffle_cross_bytes = 0;  // sharded: crossed a channel edge
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
    : config_(config), dfs_(dfs) {
  if (config_.num_shards > 1) {
    shards_.reserve(static_cast<size_t>(config_.num_shards));
    for (int s = 0; s < config_.num_shards; ++s) {
      shards_.push_back(
          std::make_unique<Shard>(s, config_.num_shards, config_.sharding));
    }
    channel_ = std::make_unique<ShardChannel>(config_.num_shards);
  }
}

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
  for (auto& shard : shards_) shard->Reset();
  if (channel_ != nullptr) channel_->Reset();
}

StatusOr<JobStats> Cluster::Run(const JobConfig& job) {
  RAPIDA_CHECK(job.map != nullptr) << "job '" << job.name << "' has no map fn";
  const int S = config_.num_shards > 1 ? config_.num_shards : 1;
  const bool sharded = S > 1;
  if (observer_ != nullptr) {
    RAPIDA_RETURN_IF_ERROR(observer_->OnPhase(job.name, "setup"));
  }
  const auto wall_start = std::chrono::steady_clock::now();
  JobStats stats;
  stats.name = job.name;
  stats.map_only = job.reduce == nullptr;
  stats.num_shards = sharded ? S : 0;
  if (sharded) stats.shard_output_bytes.assign(static_cast<size_t>(S), 0);

  // ---- read inputs & form splits ----
  // Each input file contributes ceil(stored/block) splits; records are
  // assigned to splits as contiguous chunks of their file (record i goes
  // to split base + i / per_split), which matches the "many mappers scan
  // disjoint blocks" behaviour closely enough for cost purposes while
  // keeping execution deterministic. Sharding never changes split
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

  // ---- sharded dispatch: assign each map task to the shard that homes
  // the plurality of its records (lowest id wins ties), queue it there,
  // and drain the per-shard queues into the dispatch order. Execution
  // order of map tasks never affects results (each task's output is
  // indexed by task, and shuffle chunks re-sort by task), so shard-local
  // dispatch is free. ----
  std::vector<int> task_shard;
  std::vector<size_t> dispatch;
  if (sharded) {
    task_shard.resize(splits.size(), 0);
    std::vector<uint64_t> votes(static_cast<size_t>(S));
    for (size_t t = 0; t < splits.size(); ++t) {
      std::fill(votes.begin(), votes.end(), 0);
      for (const TaggedRecord& tr : splits[t].records) {
        votes[static_cast<size_t>(AssignShard(tr.record->key_hash,
                                              config_.sharding, S))]++;
      }
      int best = 0;
      for (int s = 1; s < S; ++s) {
        if (votes[static_cast<size_t>(s)] >
            votes[static_cast<size_t>(best)]) {
          best = s;
        }
      }
      task_shard[t] = best;
      shards_[static_cast<size_t>(best)]->EnqueueMapTask(t);
    }
    dispatch.reserve(splits.size());
    for (int s = 0; s < S; ++s) {
      while (auto t = shards_[static_cast<size_t>(s)]->DequeueMapTask()) {
        dispatch.push_back(*t);
      }
    }
  }

  util::ThreadPool* workers = pool();
  // Shuffle partition count. Unsharded: one per executor so the reduce
  // side can use the full pool. Sharded: one per shard — partition p IS
  // shard p's reduce input, fed exclusively through the channel.
  // hash(key) % R only decides which partition groups a key; outputs are
  // re-merged into global key order below, so R never affects results or
  // counters.
  const size_t num_partitions =
      stats.map_only
          ? 0
          : (sharded ? static_cast<size_t>(S)
                     : static_cast<size_t>(
                           workers ? workers->num_threads() + 1 : 1));

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
    // Sharded: home shard of each emitted record — the shard the producing
    // input record lives on under the sharding scheme. The map fn is called
    // once per record, so the emissions since the last call are exactly
    // that record's. map_finish flushes (Map.clean()) belong to the task's
    // shard: they are re-emissions of state that already lives where the
    // mapper runs.
    std::vector<int> emit_homes;
    if (sharded) {
      shards_[static_cast<size_t>(task_shard[task])]->CountMapTask();
      emit_homes.reserve(split.records.size());
    }
    for (const TaggedRecord& tr : split.records) {
      job.map(*tr.record, tr.tag, &ctx);
      if (sharded && map_store->size() != emit_homes.size()) {
        emit_homes.resize(map_store->size(),
                          AssignShard(tr.record->key_hash, config_.sharding,
                                      S));
      }
    }
    if (job.map_finish) job.map_finish(&ctx);
    if (sharded) emit_homes.resize(map_store->size(), task_shard[task]);
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
      result.output_homes = std::move(emit_homes);
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
      // Combined records are task-level re-aggregations: they live on the
      // mapper's shard.
      if (sharded) emit_homes.assign(map_out.size(), task_shard[task]);
    }
    result.stores.push_back(std::move(map_store));

    // Scatter into per-partition buckets, then one locked append each.
    // Partition choice reuses the hash stamped at Emit — no per-record
    // std::hash here — and never affects results or counters: outputs are
    // re-merged into global key order below.
    std::vector<std::vector<Record>> buckets(num_partitions);
    if (sharded) {
      // Each record flows from its home shard to the shard owning its
      // key's reducer range; the channel is the only path into a shard's
      // reduce input and accounts every (from -> to) edge.
      std::vector<uint64_t> edge_bytes(static_cast<size_t>(S) * S, 0);
      std::vector<uint64_t> edge_records(static_cast<size_t>(S) * S, 0);
      for (size_t i = 0; i < map_out.size(); ++i) {
        const Record& r = map_out[i];
        result.shuffle_records += 1;
        result.shuffle_bytes += r.Bytes();
        const int to = OwnerShard(r.key_hash, S);
        const int from = emit_homes[i];
        edge_bytes[static_cast<size_t>(from) * S + to] += r.Bytes();
        edge_records[static_cast<size_t>(from) * S + to] += 1;
        if (from == to) {
          result.shuffle_local_bytes += r.Bytes();
        } else {
          result.shuffle_cross_bytes += r.Bytes();
        }
        buckets[static_cast<size_t>(to)].push_back(r);
      }
      std::vector<uint64_t> by_from_bytes(static_cast<size_t>(S));
      std::vector<uint64_t> by_from_records(static_cast<size_t>(S));
      for (int to = 0; to < S; ++to) {
        std::vector<Record>& chunk = buckets[static_cast<size_t>(to)];
        if (chunk.empty()) continue;
        for (int from = 0; from < S; ++from) {
          by_from_bytes[static_cast<size_t>(from)] =
              edge_bytes[static_cast<size_t>(from) * S + to];
          by_from_records[static_cast<size_t>(from)] =
              edge_records[static_cast<size_t>(from) * S + to];
        }
        ShufflePartition& part = partitions[static_cast<size_t>(to)];
        channel_->Deliver(to, by_from_bytes.data(), by_from_records.data(),
                          [&part, task, &chunk] {
                            std::lock_guard<std::mutex> lock(part.mu);
                            part.num_records += chunk.size();
                            part.chunks.emplace_back(task, std::move(chunk));
                          });
      }
    } else {
      for (const Record& r : map_out) {
        result.shuffle_records += 1;
        result.shuffle_bytes += r.Bytes();
        size_t p = num_partitions == 1 ? 0 : r.key_hash % num_partitions;
        buckets[p].push_back(r);
      }
      for (size_t p = 0; p < num_partitions; ++p) {
        if (buckets[p].empty()) continue;
        std::lock_guard<std::mutex> lock(partitions[p].mu);
        partitions[p].num_records += buckets[p].size();
        partitions[p].chunks.emplace_back(task, std::move(buckets[p]));
      }
    }
  };

  run_tasks(splits.size(), [&](size_t i) {
    map_body(sharded ? dispatch[i] : i);
  });

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
  if (!sharded) {
    // One address space: every shuffled byte is a local hand-off. (The
    // 10-node cost model still prices the simulated network; these
    // counters say what crosses *shard* boundaries, and there are none.)
    stats.shuffle_local_bytes = stats.shuffle_bytes;
    stats.shuffle_cross_bytes = 0;
  }

  std::vector<Record> output;
  std::vector<std::shared_ptr<ColumnarRecords>> output_stores;
  // Sharded: owner shard of every output record (parallel to `output`) —
  // map-only records stay on their home shard; reduce records belong to
  // the shard whose reducers own the group key.
  std::vector<int> output_owner;
  if (stats.map_only) {
    // Map-only job: mapper outputs concatenate in split order; the output
    // adopts every task's columnar store.
    stats.shuffle_records = 0;
    stats.shuffle_bytes = 0;
    stats.shuffle_local_bytes = 0;
    stats.shuffle_cross_bytes = 0;
    stats.num_reducers = 0;
    size_t total = 0;
    for (const MapTaskResult& r : task_results) total += r.output.size();
    output.reserve(total);
    if (sharded) output_owner.reserve(total);
    for (MapTaskResult& r : task_results) {
      output.insert(output.end(), r.output.begin(), r.output.end());
      if (sharded) {
        output_owner.insert(output_owner.end(), r.output_homes.begin(),
                            r.output_homes.end());
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
      if (sharded) output_owner.reserve(total);
      for (const ReducedGroup& g : all_groups) {
        output.insert(output.end(), part_out[g.part].begin() + g.begin,
                      part_out[g.part].begin() + g.end);
        // Sharded: partition index IS the owning shard.
        if (sharded) {
          output_owner.insert(output_owner.end(), g.end - g.begin,
                              static_cast<int>(g.part));
        }
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
        // Sharded: everything this group emitted belongs to the owning
        // partition's shard.
        if (sharded) {
          output_owner.resize(reduce_store->size(),
                              static_cast<int>(best));
        }
      }
      stats.factorized_groups += rctx.factorized_groups();
      stats.factorized_flat_rows += rctx.factorized_flat_rows();
      output.reserve(reduce_store->size());
      reduce_store->AppendRecordViews(&output);
      output_stores.push_back(std::move(reduce_store));
    }
  }

  stats.output_records = output.size();
  for (const Record& r : output) stats.output_bytes += r.Bytes();
  if (job.output_options.compressed) {
    stats.output_bytes = static_cast<uint64_t>(
        static_cast<double>(stats.output_bytes) *
        job.output_options.compression_ratio);
  }

  if (!job.output.empty()) {
    // Sharded: before the coordinator write consumes `output`, carve the
    // per-shard segments — each shard's private Dfs gets the records it
    // owns, sharing the columnar stores (no byte copies).
    if (sharded) {
      for (int s = 0; s < S; ++s) {
        RecordBatch segment;
        uint64_t seg_bytes = 0;
        for (size_t i = 0; i < output.size(); ++i) {
          if (output_owner[i] != s) continue;
          segment.records.push_back(output[i]);
          seg_bytes += output[i].Bytes();
        }
        const uint64_t seg_records = segment.records.size();
        if (seg_records == 0) continue;
        segment.columns = output_stores;
        Shard* shard = shards_[static_cast<size_t>(s)].get();
        RAPIDA_RETURN_IF_ERROR(shard->dfs()->Write(
            job.output, std::move(segment), job.output_options));
        uint64_t stored = seg_bytes;
        if (job.output_options.compressed) {
          stored = static_cast<uint64_t>(
              static_cast<double>(stored) *
              job.output_options.compression_ratio);
        }
        stats.shard_output_bytes[static_cast<size_t>(s)] = stored;
        shard->CountOutput(seg_records, stored);
      }
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
      // Shard-aware shuffle pricing: only bytes that cross a channel edge
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
