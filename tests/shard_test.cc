// Shards of the data plane: placement-scheme determinism, the local /
// cross split of shuffle bytes (the locality scheme's zero-cross
// guarantee for key-preserving jobs), per-shard output bytes, the cost
// model's shard pricing, and the byte-identity matrix across shard and
// thread counts: shards {0, 1, 2, 4} x threads {1, 2, 4} x both schemes
// for MapReduce jobs here (run under TSan in scripts/check.sh), and every
// engine through the differential harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/cluster.h"
#include "mapreduce/dfs.h"
#include "mapreduce/sharding.h"
#include "testing/differential.h"

namespace rapida::mr {
namespace {

// ---- placement schemes ----

TEST(ShardingSchemeTest, LocalityIsResidueOfKeyHash) {
  for (uint64_t h : {0ull, 1ull, 12345ull, 0xDEADBEEFull, ~0ull}) {
    for (int s : {2, 4, 8}) {
      EXPECT_EQ(AssignShard(h, ShardingScheme::kLocality, s),
                static_cast<int>(h % static_cast<uint64_t>(s)));
      EXPECT_EQ(OwnerShard(h, s),
                static_cast<int>(h % static_cast<uint64_t>(s)));
      // The locality scheme's whole point: home == owner for every key.
      EXPECT_EQ(AssignShard(h, ShardingScheme::kLocality, s),
                OwnerShard(h, s));
    }
  }
}

TEST(ShardingSchemeTest, SplitmixMatchesReferenceVector) {
  // splitmix64's published first output for seed 0 — pins the hash-subject
  // scheme to a cross-process, cross-platform constant: two processes (or
  // machines) partitioning the same dataset always agree on placement.
  EXPECT_EQ(Splitmix64(0), 0xE220A8397B1DCDAFull);
}

TEST(ShardingSchemeTest, AssignmentIsDeterministicAndComplete) {
  for (int s : {1, 2, 4, 8}) {
    std::vector<int> counts(static_cast<size_t>(std::max(s, 1)), 0);
    for (uint64_t h = 0; h < 4096; ++h) {
      int a = AssignShard(h, ShardingScheme::kHashSubject, s);
      EXPECT_EQ(a, AssignShard(h, ShardingScheme::kHashSubject, s));
      ASSERT_GE(a, 0);
      ASSERT_LT(a, std::max(s, 1));
      counts[static_cast<size_t>(a)]++;
    }
    // Splitmix64 spreads consecutive hashes: every shard gets work.
    for (int c : counts) EXPECT_GT(c, 0);
  }
}

TEST(ShardingSchemeTest, NamesRoundTrip) {
  EXPECT_STREQ(ShardingSchemeName(ShardingScheme::kHashSubject),
               "hash-subject");
  EXPECT_STREQ(ShardingSchemeName(ShardingScheme::kLocality), "locality");
  ShardingScheme s;
  EXPECT_TRUE(ParseShardingScheme("locality", &s));
  EXPECT_EQ(s, ShardingScheme::kLocality);
  EXPECT_TRUE(ParseShardingScheme("hash-subject", &s));
  EXPECT_EQ(s, ShardingScheme::kHashSubject);
  EXPECT_TRUE(ParseShardingScheme("hash", &s));
  EXPECT_EQ(s, ShardingScheme::kHashSubject);
  EXPECT_FALSE(ParseShardingScheme("round-robin", &s));
}

// ---- Cluster::Run across shards ----

/// A keyed dataset + key-preserving map/reduce job: the map emits under
/// the input record's own key, so under the locality scheme every record
/// reduces on its home shard.
JobConfig KeyPreservingJob() {
  JobConfig job;
  job.name = "key-preserving";
  job.inputs = {"input"};
  job.output = "out";
  job.map = [](const Record& r, int, MapContext* ctx) {
    ctx->Emit(r.key, r.value);
  };
  job.reduce = [](std::string_view key, const ValueSpan& values,
                  ReduceContext* ctx) {
    ctx->Emit(key, std::to_string(values.size()));
  };
  return job;
}

/// A re-keying job with a combiner, a map_finish flush and a parallel-safe
/// reduce: keys move off their input's shard, the combiner's records live
/// on the task's shard, and at threads > 1 the reduce runs per partition.
JobConfig RegroupingJob() {
  JobConfig job;
  job.name = "regrouping";
  job.inputs = {"input"};
  job.output = "out";
  job.map = [](const Record& r, int, MapContext* ctx) {
    ctx->Emit("k" + std::to_string(std::stoi(std::string(r.key)) % 13),
              r.value);
  };
  job.map_finish = [](MapContext* ctx) { ctx->Emit("flush", "1"); };
  job.combine = [](std::string_view key, const ValueSpan& values,
                   ReduceContext* ctx) {
    ctx->Emit(key, std::to_string(values.size()));
  };
  job.reduce = [](std::string_view key, const ValueSpan& values,
                  ReduceContext* ctx) {
    uint64_t sum = 0;
    for (std::string_view v : values) sum += std::stoull(std::string(v));
    ctx->Emit(key, std::to_string(sum));
  };
  job.reduce_parallel_safe = true;
  return job;
}

RecordBatch KeyedInput(int n) {
  RecordBatch batch;
  for (int i = 0; i < n; ++i) {
    batch.Add(std::to_string(i), "v" + std::to_string(i));
  }
  return batch;
}

TEST(ShardedClusterTest, LocalitySchemeShufflesZeroCrossShardBytes) {
  Dfs dfs;
  ClusterConfig cfg;
  cfg.num_shards = 4;
  cfg.sharding = ShardingScheme::kLocality;
  Cluster cluster(cfg, &dfs);
  ASSERT_TRUE(dfs.Write("input", KeyedInput(64)).ok());
  auto stats = cluster.Run(KeyPreservingJob());
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->num_shards, 4);
  EXPECT_GT(stats->shuffle_bytes, 0u);
  EXPECT_EQ(stats->shuffle_cross_bytes, 0u);
  EXPECT_EQ(stats->shuffle_local_bytes, stats->shuffle_bytes);
}

TEST(ShardedClusterTest, HashSubjectSchemeCrossesShards) {
  Dfs dfs;
  ClusterConfig cfg;
  cfg.num_shards = 4;
  cfg.sharding = ShardingScheme::kHashSubject;
  Cluster cluster(cfg, &dfs);
  ASSERT_TRUE(dfs.Write("input", KeyedInput(64)).ok());
  auto stats = cluster.Run(KeyPreservingJob());
  ASSERT_TRUE(stats.ok()) << stats.status();
  // Scrambled placement vs residue-owned reducers: most records move, and
  // exactly the records whose home differs from their key's owner do.
  uint64_t expected_cross = 0;
  auto input = dfs.Open("input");
  ASSERT_TRUE(input.ok());
  for (const Record& r : (*input)->records) {
    if (AssignShard(r.key_hash, cfg.sharding, 4) != OwnerShard(r.key_hash, 4)) {
      expected_cross += r.Bytes();
    }
  }
  EXPECT_GT(stats->shuffle_cross_bytes, 0u);
  EXPECT_EQ(stats->shuffle_cross_bytes, expected_cross);
  EXPECT_EQ(stats->shuffle_local_bytes + stats->shuffle_cross_bytes,
            stats->shuffle_bytes);
}

TEST(ShardedClusterTest, UnshardedJobBooksAllShuffleAsLocal) {
  // A single shard has no network between map and reduce, so nothing may
  // be booked as crossing — and local + cross == shuffle holds universally.
  Dfs dfs;
  Cluster cluster(ClusterConfig{}, &dfs);
  ASSERT_TRUE(dfs.Write("input", KeyedInput(16)).ok());
  auto stats = cluster.Run(KeyPreservingJob());
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->num_shards, 1);
  EXPECT_GT(stats->shuffle_bytes, 0u);
  EXPECT_EQ(stats->shuffle_cross_bytes, 0u);
  EXPECT_EQ(stats->shuffle_local_bytes, stats->shuffle_bytes);
  ASSERT_EQ(stats->shard_output_bytes.size(), 1u);
  EXPECT_EQ(stats->shard_output_bytes[0], stats->output_bytes);
}

/// Every counter that no shard count or thread count may move.
void ExpectSameWork(const JobStats& a, const JobStats& b) {
  EXPECT_EQ(a.map_only, b.map_only);
  EXPECT_EQ(a.input_records, b.input_records);
  EXPECT_EQ(a.input_bytes, b.input_bytes);
  EXPECT_EQ(a.map_output_records, b.map_output_records);
  EXPECT_EQ(a.map_output_bytes, b.map_output_bytes);
  EXPECT_EQ(a.shuffle_records, b.shuffle_records);
  EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes);
  EXPECT_EQ(a.output_records, b.output_records);
  EXPECT_EQ(a.output_bytes, b.output_bytes);
  EXPECT_EQ(a.factorized_groups, b.factorized_groups);
  EXPECT_EQ(a.factorized_flat_rows, b.factorized_flat_rows);
  EXPECT_EQ(a.num_mappers, b.num_mappers);
}

/// The counters that depend on the shard count (the cost model prices the
/// shards as nodes, and placement decides local vs cross).
void ExpectSamePlacement(const JobStats& a, const JobStats& b) {
  EXPECT_EQ(a.shuffle_local_bytes, b.shuffle_local_bytes);
  EXPECT_EQ(a.shuffle_cross_bytes, b.shuffle_cross_bytes);
  EXPECT_EQ(a.num_reducers, b.num_reducers);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
}

TEST(ShardedClusterTest, ResultsAreByteIdenticalToUnsharded) {
  // Shards {0, 1, 2, 4} x threads {1, 2, 4} x both schemes, on three jobs
  // and several map tasks each. Outputs must equal the 1-shard, 1-thread
  // run record for record. The work counters must equal it too; the
  // placement counters and sim_seconds depend on the shard count by
  // design, so they must equal the same shard count's 1-thread run, and
  // at 0 and 1 shards the reference itself. 0 and 1 shards must give
  // identical JobStats, wall time aside.
  const std::vector<JobConfig> jobs = [] {
    JobConfig map_only = KeyPreservingJob();
    map_only.name = "map-only";
    map_only.reduce = nullptr;
    return std::vector<JobConfig>{KeyPreservingJob(), RegroupingJob(),
                                  map_only};
  }();
  for (const JobConfig& job : jobs) {
    SCOPED_TRACE(job.name);
    auto run = [&job](int shards, ShardingScheme scheme, int threads,
                      std::vector<std::pair<std::string, std::string>>*
                          out_records) {
      Dfs dfs;
      ClusterConfig cfg;
      cfg.num_shards = shards;
      cfg.sharding = scheme;
      cfg.exec_threads = threads;
      cfg.exec_split_bytes = 256;  // several map tasks
      Cluster cluster(cfg, &dfs);
      EXPECT_TRUE(dfs.Write("input", KeyedInput(200)).ok());
      auto stats = cluster.Run(job);
      EXPECT_TRUE(stats.ok()) << stats.status();
      auto out = dfs.Open("out");
      EXPECT_TRUE(out.ok());
      // Copy the bytes: the records view into this run's Dfs.
      out_records->clear();
      for (const Record& r : (*out)->records) {
        out_records->emplace_back(std::string(r.key), std::string(r.value));
      }
      return *stats;
    };
    std::vector<std::pair<std::string, std::string>> ref_out;
    const JobStats ref = run(1, ShardingScheme::kHashSubject, 1, &ref_out);
    ASSERT_GT(ref.num_mappers, 1);
    ASSERT_FALSE(ref_out.empty());

    for (ShardingScheme scheme :
         {ShardingScheme::kHashSubject, ShardingScheme::kLocality}) {
      for (int shards : {0, 1, 2, 4}) {
        JobStats serial;
        for (int threads : {1, 2, 4}) {
          SCOPED_TRACE(testing::Message()
                       << ShardingSchemeName(scheme) << " shards=" << shards
                       << " threads=" << threads);
          std::vector<std::pair<std::string, std::string>> out;
          const JobStats stats = run(shards, scheme, threads, &out);
          EXPECT_EQ(out, ref_out);
          ExpectSameWork(stats, ref);
          EXPECT_EQ(stats.shuffle_local_bytes + stats.shuffle_cross_bytes,
                    stats.shuffle_bytes);
          EXPECT_EQ(stats.num_shards, std::max(shards, 1));
          if (threads == 1) serial = stats;
          ExpectSamePlacement(stats, serial);
          EXPECT_EQ(stats.shard_output_bytes, serial.shard_output_bytes);
          if (shards <= 1) {
            ExpectSamePlacement(stats, ref);
            EXPECT_EQ(stats.num_shards, ref.num_shards);
            EXPECT_EQ(stats.shard_output_bytes, ref.shard_output_bytes);
          }
        }
      }
    }
  }
}

TEST(ShardedClusterTest, ShardOutputBytesFollowKeyOwnership) {
  // The key-preserving reduce emits under the group key, so shard s owns
  // exactly the output records whose key hash falls in its residue class,
  // compressed or not, through the serial and the parallel reduce.
  for (bool compressed : {false, true}) {
    for (bool parallel_reduce : {false, true}) {
      Dfs dfs;
      ClusterConfig cfg;
      cfg.num_shards = 4;
      cfg.sharding = ShardingScheme::kLocality;
      cfg.exec_threads = 4;
      Cluster cluster(cfg, &dfs);
      ASSERT_TRUE(dfs.Write("input", KeyedInput(64)).ok());
      JobConfig job = KeyPreservingJob();
      job.reduce_parallel_safe = parallel_reduce;
      job.output_options.compressed = compressed;
      auto stats = cluster.Run(job);
      ASSERT_TRUE(stats.ok()) << stats.status();
      auto out = dfs.Open("out");
      ASSERT_TRUE(out.ok());
      std::vector<uint64_t> expected(4, 0);
      for (const Record& r : (*out)->records) {
        expected[r.key_hash % 4] += r.Bytes();
      }
      if (compressed) {
        for (uint64_t& b : expected) {
          b = static_cast<uint64_t>(static_cast<double>(b) *
                                    job.output_options.compression_ratio);
        }
      }
      EXPECT_EQ(stats->shard_output_bytes, expected);
      if (!compressed) {
        uint64_t sum = 0;
        for (uint64_t b : stats->shard_output_bytes) sum += b;
        EXPECT_EQ(sum, stats->output_bytes);
      }
    }
  }
}

TEST(ShardedClusterTest, MapOnlyOutputBytesFollowRecordHomes) {
  // Map-only records never move: each stays on the shard its input record
  // is homed on, which under hash-subject is not its key's owner.
  const int kShards = 4;
  const ShardingScheme kScheme = ShardingScheme::kHashSubject;
  Dfs dfs;
  ClusterConfig cfg;
  cfg.num_shards = kShards;
  cfg.sharding = kScheme;
  cfg.exec_split_bytes = 256;  // several map tasks
  Cluster cluster(cfg, &dfs);
  ASSERT_TRUE(dfs.Write("input", KeyedInput(64)).ok());
  JobConfig job = KeyPreservingJob();
  job.name = "map-only";
  job.reduce = nullptr;
  auto stats = cluster.Run(job);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->shuffle_bytes, 0u);
  std::vector<uint64_t> expected(kShards, 0);
  auto out = dfs.Open("out");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)->records.size(), 64u);
  for (const Record& r : (*out)->records) {
    expected[AssignShard(r.key_hash, kScheme, kShards)] += r.Bytes();
  }
  EXPECT_EQ(stats->shard_output_bytes, expected);
  uint64_t sum = 0;
  for (uint64_t b : stats->shard_output_bytes) sum += b;
  EXPECT_EQ(sum, stats->output_bytes);

  // A job that writes no file owns no output bytes on any shard.
  job.output.clear();
  auto unwritten = cluster.Run(job);
  ASSERT_TRUE(unwritten.ok()) << unwritten.status();
  EXPECT_EQ(unwritten->shard_output_bytes,
            std::vector<uint64_t>(kShards, 0));
}

TEST(ShardedClusterTest, ShardedSlotsScaleTheCostModel) {
  // 8 shards expose 8 nodes' worth of slots: the same job gets cheaper
  // as shards are added (this is where the scale-out speedup comes from).
  Dfs dfs;
  ClusterConfig base;
  EXPECT_EQ(base.map_slots(), base.num_nodes * base.map_slots_per_node);
  ClusterConfig sharded = base;
  sharded.num_shards = 8;
  EXPECT_EQ(sharded.map_slots(), 8 * base.map_slots_per_node);
  EXPECT_EQ(sharded.reduce_slots(), 8 * base.reduce_slots_per_node);

  JobStats stats;
  stats.input_records = 1000;
  stats.input_bytes = 400 * 1024 * 1024;
  stats.shuffle_records = 1000;
  stats.shuffle_bytes = 200 * 1024 * 1024;
  stats.shuffle_local_bytes = 150 * 1024 * 1024;
  stats.shuffle_cross_bytes = 50 * 1024 * 1024;
  stats.output_bytes = 50 * 1024 * 1024;
  stats.num_reducers = 16;

  ClusterConfig two = base;
  two.num_shards = 2;
  Cluster c2(two, &dfs);
  Dfs dfs8;
  ClusterConfig eight = base;
  eight.num_shards = 8;
  Cluster c8(eight, &dfs8);
  // More shards, more slots, cheaper job; local bytes priced at disk
  // speed keep both below an all-network split of the same volume.
  EXPECT_LT(c8.EstimateSimSeconds(stats), c2.EstimateSimSeconds(stats));
  JobStats all_cross = stats;
  all_cross.shuffle_local_bytes = 0;
  all_cross.shuffle_cross_bytes = stats.shuffle_bytes;
  EXPECT_LT(c8.EstimateSimSeconds(stats),
            c8.EstimateSimSeconds(all_cross));
}

// ---- full-engine byte-identity matrix ----

TEST(ShardDifferentialTest, EnginesAreByteIdenticalAcrossShardMatrix) {
  // Every engine, shard counts {2, 4} x the harness's thread counts x both
  // placement schemes, cross-checked against the reference evaluator and
  // the one-shard baseline's cycle/shuffle counters. One shard needs no
  // entry: the harness's baseline run (shard count 0) is that
  // configuration, and ResultsAreByteIdenticalToUnsharded pins 0 == 1.
  for (uint64_t seed : {1ull, 5ull, 9ull}) {
    difftest::FuzzCase c = difftest::MakeFuzzCase(seed);
    difftest::DiffOptions opts;
    opts.shard_counts = {2, 4};
    difftest::DiffFailure f = difftest::RunDifferential(c, opts);
    EXPECT_FALSE(f.failed) << "seed " << seed << ": " << f.ToString();
  }
}

}  // namespace
}  // namespace rapida::mr
