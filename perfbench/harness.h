// Helpers shared by the perfbench workloads: percentiles, seeded Zipf key
// streams, open-loop schedule accounting, metric naming and output, the
// benchmark's own span recorder, and process context (RSS, load, env).
//
// Everything here is benchmark-side: it wraps calls into the program's
// public APIs but never reaches inside them.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Seconds on the steady clock since an arbitrary fixed origin.
double Now();

// Nearest-rank percentile (p in [0, 100]) of `values`: the smallest value
// such that at least p% of the samples are <= it. Sorts a copy; returns 0
// for an empty input.
double NearestRank(std::vector<double> values, double p);

// Median by nearest rank (p = 50).
double Median(std::vector<double> values);

// Tail percentile robust to rare host stalls: splits `values` (in arrival
// order) into consecutive windows of `window` samples, takes each window's
// nearest-rank percentile p, and returns the median over windows. A trailing
// partial window is dropped unless it is the only one.
double WindowedPercentile(const std::vector<double>& values, size_t window,
                          double p);

// Seeded Zipf(theta) key stream over [0, n): rank r (0-based) is drawn with
// probability proportional to 1 / (r + 1)^theta, and ranks map to keys
// through a seeded permutation, so different seeds make different keys
// hot. The same (n, theta, seed) always yields the same stream.
class ZipfKeys {
 public:
  ZipfKeys(int64_t n, double theta, uint64_t seed);

  int64_t Next();
  // Key that rank r maps to (rank 0 is the hottest key).
  int64_t KeyOfRank(int64_t rank) const { return perm_[rank]; }
  int64_t n() const { return static_cast<int64_t>(perm_.size()); }

 private:
  uint64_t state_;
  std::vector<double> cdf_;    // cdf_[r] = P(rank <= r)
  std::vector<int64_t> perm_;  // rank -> key
};

// SplitMix64 step, the benchmark's one stateless seed mixer.
uint64_t Mix(uint64_t x);

// Open-loop schedule at a fixed offered rate: request i is due at
// start + i / rate. Records, per sent request, how late the generator
// sent it (send time - due time) and, per response, the latency measured
// from the due time, so a generator stall is charged to every request it
// delayed.
class OpenLoop {
 public:
  OpenLoop(double start, double rate_per_s);

  double DueTime(int64_t i) const;
  // Number of requests due at or before `now`.
  int64_t DueBy(double now) const;
  // Records that request i was sent at `sent`.
  void Sent(int64_t i, double sent);
  // Latency in seconds of request i completing at `done`, counted from its
  // due time.
  double Completed(int64_t i, double done) const;

  const std::vector<double>& lateness_s() const { return lateness_; }

 private:
  double start_;
  double rate_;
  std::vector<double> lateness_;
};

// Metric names are [A-Za-z0-9_.-]+, start with a letter or digit and are at
// most 64 characters long.
bool ValidMetricName(const std::string& name);

// Ordered metric set printed as {"name": {"value": v, "unit": u}, ...}.
class Metrics {
 public:
  // Aborts on an invalid name or a name set twice: either is a bug in the
  // benchmark, never a property of the measured program.
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  std::string ToJson() const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Entry> values_;
};

// Escapes a string for a JSON string literal (quotes not included).
std::string JsonEscape(const std::string& s);

// The benchmark's span recorder. Disabled (every call a no-op) unless
// Enable() ran, so untraced runs measure the program alone. Spans are kept
// in memory and written out by WriteJson at exit. Not thread-safe: only
// the benchmark's main thread records spans.
class Tracer {
 public:
  struct Span {
    int64_t id = 0;
    int64_t parent = -1;  // -1: root
    std::string name;     // "<layer>.<operation>"
    double start = 0.0;
    double end = 0.0;
  };

  static Tracer& Global();

  void Enable(const std::string& run_id);

  // Opens a span under the innermost open span.
  int64_t Begin(const std::string& name);
  void End(int64_t id);
  // Records an already finished span [start, end] under the open span.
  void Add(const std::string& name, double start, double end);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time per layer ("core", "graph", ...: the name's first component)
  // over spans that started at or after `since`: each span's duration minus
  // the part its children cover.
  std::map<std::string, double> SelfSecondsByLayer(double since) const;

  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::string run_id_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;  // stack of open span ids (main thread)
};

// RAII span on the global tracer; a no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t id_ = -1;
};

// Peak resident set size of this process in MiB.
double PeakRssMb();
// 1-minute load average, or -1 when unavailable.
double LoadAverage1m();
// Unsets every inherited GRIMP_* variable; returns the names removed. Must
// run before the first pool, arena or SIMD table is created.
std::vector<std::string> NeutraliseGrimpEnv();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
