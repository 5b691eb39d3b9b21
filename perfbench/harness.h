// Shared pieces of the benchmark harness: command-line options, the span
// recorder used by traced runs, the JSON writer for the raw result file
// that run.py turns into metrics, and the entry points of the workloads.
#ifndef RAPIDA_PERFBENCH_HARNESS_H_
#define RAPIDA_PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "analytics/binding.h"
#include "mapreduce/cluster.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_path;    // raw result file (JSON)
  std::string scratch_dir; // temp files (the serve workload's store)
};

/// Nanoseconds on the steady clock since the first call in the process.
int64_t NowNs();

/// CPU time of the whole process (every thread) in nanoseconds. Unlike
/// the steady clock it does not advance while the host runs something
/// else, so it measures the program's work on a shared host.
int64_t ProcessCpuNs();

/// Host speed probe. On a shared host even CPU time drifts with the load
/// of other tenants (contended caches, memory and core clocks), so every
/// run also times a fixed kernel that shares nothing with the program
/// under test: it formats and hashes keys into an open-addressing table
/// and sorts an array, all in buffers of its own allocated once, so the
/// program's heap and code cannot change what it measures. The CPU time
/// of the program is later scaled by the ratio of a reference kernel time
/// to the run's median kernel time. Not thread-safe: one caller at a time.
class Calibrator {
 public:
  /// Runs the kernel once and records its CPU milliseconds (on the
  /// calling thread) and the wall time the probe took.
  void Sample();
  const std::vector<double>& ms() const { return ms_; }
  /// Wall time spent in Sample(), to leave out of timed windows.
  int64_t wall_ns() const { return wall_ns_; }

 private:
  std::vector<double> ms_;
  int64_t wall_ns_ = 0;
};

inline double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// One timed interval at a layer boundary. Spans of one query share
/// `trace`; `parent` is 0 for a root.
struct Span {
  uint64_t trace = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span store. Recording is on only while enabled(); spans are
/// written out once, when the run ends. Thread-safe.
class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  uint32_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const Span& span);
  std::vector<Span> spans() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records [construction, destruction) as one span when `tracer` is
/// enabled at construction; a no-op otherwise.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t trace,
             uint32_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Id to pass as `parent` to child spans (0 when not recording).
  uint32_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Maps the cluster's public observer hooks to mr.job / mr.map / mr.reduce
/// spans: "setup" opens the job and its map phase, "reduce" (the map/
/// reduce barrier) closes the map phase, OnJobComplete closes the job.
/// Jobs of one cluster run one at a time, so one open job is tracked.
class JobSpanObserver : public rapida::mr::ClusterObserver {
 public:
  JobSpanObserver(Tracer* tracer, uint64_t trace, uint32_t parent)
      : tracer_(tracer), trace_(trace), parent_(parent) {}

  rapida::Status OnPhase(const std::string& job_name,
                         const char* phase) override;
  void OnJobComplete(rapida::mr::JobStats* stats) override;

 private:
  Tracer* tracer_;
  uint64_t trace_;
  uint32_t parent_;
  int64_t setup_ns_ = 0;
  int64_t barrier_ns_ = -1;
};

/// Order-independent hash of a result multiset: column names plus the
/// sum of per-row hashes over dictionary ids. Within one dictionary two
/// tables hash equal iff their rows agree as multisets (ids map 1:1 to
/// terms), which is what a pass-to-pass comparison needs.
uint64_t ResultHash(const rapida::analytics::BindingTable& table);

/// Minimal JSON emitter for the raw result file.
class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray(const std::string& key);
  void EndArray();
  void Key(const std::string& key);
  void Value(double v);
  void Value(int64_t v);
  void Value(uint64_t v);
  void Value(int v) { Value(static_cast<int64_t>(v)); }
  void Value(bool v);
  void Value(const std::string& v);
  void Value(const char* v) { Value(std::string(v)); }
  template <typename T>
  void Field(const std::string& key, const T& v) {
    Key(key);
    Value(v);
  }
  template <typename T>
  void Array(const std::string& key, const std::vector<T>& values) {
    BeginArray(key);
    for (const T& v : values) Value(v);
    EndArray();
  }
  void Spans(const std::vector<Span>& spans);
  const std::string& str() const { return out_; }

 private:
  void Separator();
  std::string out_;
  bool need_comma_ = false;
};

/// Host-wide CPU time counters (clock ticks) from /proc/stat; zeros when
/// unavailable.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// Host context every result file records. `from`/`to` bracket the timed
/// window; the share of CPU time the hypervisor stole in it is recorded,
/// since it is the main source of run-to-run noise on a shared host.
void WriteContext(JsonWriter* w, const Options& opts, const CpuTicks& from,
                  const CpuTicks& to);
/// Peak resident set size in MiB since the process started or since the
/// last ResetPeakRss.
double PeakRssMb();
/// Returns freed heap to the system and restarts the peak-RSS window, so
/// that memory the benchmark's own checks used is not counted. False when
/// the kernel does not support the reset (the peak then covers the whole
/// process).
bool ResetPeakRss();
/// Writes `text` to `path`; false on failure.
bool WriteFile(const std::string& path, const std::string& text);

int RunBatchWorkload(const Options& opts);
int RunServeWorkload(const Options& opts);

}  // namespace perfbench

#endif  // RAPIDA_PERFBENCH_HARNESS_H_
