#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include "harness.h"

namespace perfbench {

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

int64_t ProcessCpuNs() {
  struct timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

namespace {

int64_t ThreadCpuNs() {
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

void Calibrator::Sample() {
  constexpr size_t kSlots = size_t{1} << 16;  // power of two
  constexpr size_t kKeys = 40000;
  constexpr uint64_t kDistinct = 30011;
  // Allocated once and reused, so no call touches fresh heap.
  static std::vector<uint64_t>* const keys = new std::vector<uint64_t>(kSlots);
  static std::vector<uint64_t>* const sums = new std::vector<uint64_t>(kSlots);
  static std::vector<uint64_t>* const values = new std::vector<uint64_t>(kKeys);
  static volatile uint64_t sink = 0;  // keeps the result, so the work stays

  const int64_t wall0 = NowNs();
  const int64_t cpu0 = ThreadCpuNs();
  std::fill(keys->begin(), keys->end(), 0);
  std::fill(sums->begin(), sums->end(), 0);
  auto slot_of = [&](uint64_t v) {
    char buf[32];
    const int n = std::snprintf(buf, sizeof(buf), "term/%016llx",
                                static_cast<unsigned long long>(v % kDistinct));
    uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a over the formatted key
    for (int i = 0; i < n; ++i) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 0x100000001B3ull;
    }
    size_t slot = h & (kSlots - 1);
    while ((*keys)[slot] != 0 && (*keys)[slot] != h) {
      slot = (slot + 1) & (kSlots - 1);
    }
    (*keys)[slot] = h;
    return slot;
  };
  uint64_t state = 0x5EED;
  for (size_t i = 0; i < kKeys; ++i) {
    const uint64_t v = SplitMix64(&state);
    (*values)[i] = v;
    (*sums)[slot_of(v)] += v;
  }
  uint64_t total = 0;
  for (size_t i = 0; i < kKeys; ++i) total += (*sums)[slot_of((*values)[i])];
  std::sort(values->begin(), values->end());
  sink = sink + total + (*values)[kKeys / 2];
  ms_.push_back(static_cast<double>(ThreadCpuNs() - cpu0) / 1e6);
  wall_ns_ += NowNs() - wall0;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t trace,
                       uint32_t parent)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.trace = trace;
  span_.id = tracer_->NewId();
  span_.parent = parent;
  span_.name = name;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  tracer_->Record(span_);
}

rapida::Status JobSpanObserver::OnPhase(const std::string& job_name,
                                        const char* phase) {
  (void)job_name;
  if (std::strcmp(phase, "setup") == 0) {
    setup_ns_ = NowNs();
    barrier_ns_ = -1;
  } else if (std::strcmp(phase, "reduce") == 0) {
    barrier_ns_ = NowNs();
  }
  return rapida::Status::OK();
}

void JobSpanObserver::OnJobComplete(rapida::mr::JobStats* stats) {
  (void)stats;
  const int64_t end = NowNs();
  Span job{trace_, tracer_->NewId(), parent_, "mr.job", setup_ns_, end};
  tracer_->Record(job);
  const int64_t map_end = barrier_ns_ >= 0 ? barrier_ns_ : end;
  tracer_->Record({trace_, tracer_->NewId(), job.id, "mr.map", setup_ns_,
                   map_end});
  if (barrier_ns_ >= 0) {
    tracer_->Record({trace_, tracer_->NewId(), job.id, "mr.reduce",
                     barrier_ns_, end});
  }
}

namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

uint64_t ResultHash(const rapida::analytics::BindingTable& table) {
  uint64_t h = 1469598103934665603ULL;
  for (const std::string& var : table.vars()) {
    for (char c : var) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
    h = (h ^ 0x1F) * 1099511628211ULL;
  }
  uint64_t rows = 0;
  for (const auto& row : table.rows()) {
    uint64_t r = 0x9E3779B97F4A7C15ULL;
    for (rapida::rdf::TermId id : row) r = Mix(r ^ id) + 0x9E3779B97F4A7C15ULL;
    rows += Mix(r);
  }
  return Mix(h ^ rows) ^ table.NumRows();
}

void JsonWriter::Separator() {
  if (need_comma_) out_ += ',';
  need_comma_ = false;
}

void JsonWriter::BeginObject() {
  Separator();
  out_ += '{';
}

void JsonWriter::EndObject() {
  out_ += '}';
  need_comma_ = true;
}

void JsonWriter::BeginArray(const std::string& key) {
  Key(key);
  out_ += '[';
}

void JsonWriter::EndArray() {
  out_ += ']';
  need_comma_ = true;
}

void JsonWriter::Key(const std::string& key) {
  Value(key);
  out_ += ':';
  need_comma_ = false;
}

void JsonWriter::Value(double v) {
  Separator();
  if (!std::isfinite(v)) {
    out_ += "null";
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
  }
  need_comma_ = true;
}

void JsonWriter::Value(int64_t v) {
  Separator();
  out_ += std::to_string(v);
  need_comma_ = true;
}

void JsonWriter::Value(uint64_t v) {
  Separator();
  out_ += std::to_string(v);
  need_comma_ = true;
}

void JsonWriter::Value(bool v) {
  Separator();
  out_ += v ? "true" : "false";
  need_comma_ = true;
}

void JsonWriter::Value(const std::string& v) {
  Separator();
  out_ += '"';
  for (char c : v) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  need_comma_ = true;
}

void JsonWriter::Spans(const std::vector<Span>& spans) {
  // Columnar: one array per field keeps the file compact.
  Key("spans");
  BeginObject();
  BeginArray("trace");
  for (const Span& s : spans) Value(s.trace);
  EndArray();
  BeginArray("id");
  for (const Span& s : spans) Value(static_cast<uint64_t>(s.id));
  EndArray();
  BeginArray("parent");
  for (const Span& s : spans) Value(static_cast<uint64_t>(s.parent));
  EndArray();
  BeginArray("name");
  for (const Span& s : spans) Value(s.name);
  EndArray();
  BeginArray("start_ns");
  for (const Span& s : spans) Value(s.start_ns);
  EndArray();
  BeginArray("end_ns");
  for (const Span& s : spans) Value(s.end_ns);
  EndArray();
  EndObject();
}

CpuTicks ReadCpuTicks() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTicks out;
  if (!(stat >> cpu) || cpu != "cpu") return out;
  uint64_t v = 0;
  for (int field = 0; field < 8 && (stat >> v); ++field) {
    out.total += v;
    if (field == 7) out.steal = v;
  }
  return out;
}

void WriteContext(JsonWriter* w, const Options& opts, const CpuTicks& from,
                  const CpuTicks& to) {
  w->Field("workload", opts.workload);
  w->Field("seed", opts.seed);
  w->Field("seconds", opts.seconds);
  w->Field("trace", opts.trace);
  w->Field("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  w->Field("build_type", PERFBENCH_BUILD_TYPE);
  const uint64_t total = to.total - from.total;
  w->Field("host_steal_frac",
           total > 0 ? static_cast<double>(to.steal - from.steal) /
                           static_cast<double>(total)
                     : 0.0);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  return static_cast<bool>(clear);
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  return static_cast<bool>(out);
}

}  // namespace perfbench
