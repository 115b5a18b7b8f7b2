#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>

extern char** environ;

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NearestRank(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  // Rank ceil(p/100 * n), 1-based, clamped to [1, n].
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(values.size()));
  return values[static_cast<size_t>(rank - 1)];
}

double Median(std::vector<double> values) {
  return NearestRank(std::move(values), 50.0);
}

double WindowedPercentile(const std::vector<double>& values, size_t window,
                          double p) {
  if (values.size() <= window || window == 0) return NearestRank(values, p);
  std::vector<double> per_window;
  for (size_t b = 0; b + window <= values.size(); b += window) {
    per_window.push_back(NearestRank(
        std::vector<double>(values.begin() + static_cast<ptrdiff_t>(b),
                            values.begin() + static_cast<ptrdiff_t>(b + window)),
        p));
  }
  return Median(std::move(per_window));
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

ZipfKeys::ZipfKeys(int64_t n, double theta, uint64_t seed)
    : state_(Mix(seed)),
      cdf_(static_cast<size_t>(n)),
      perm_(static_cast<size_t>(n)) {
  double sum = 0.0;
  for (int64_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf_[static_cast<size_t>(r)] = sum;
  }
  for (double& c : cdf_) c /= sum;
  cdf_.back() = 1.0;
  std::iota(perm_.begin(), perm_.end(), 0);
  uint64_t s = Mix(seed ^ 0x5a5a5a5a5a5a5a5aULL);
  for (int64_t i = n - 1; i > 0; --i) {
    s = Mix(s);
    std::swap(perm_[static_cast<size_t>(i)],
              perm_[static_cast<size_t>(s % static_cast<uint64_t>(i + 1))]);
  }
}

int64_t ZipfKeys::Next() {
  state_ = Mix(state_);
  const double u =
      static_cast<double>(state_ >> 11) * (1.0 / 9007199254740992.0);
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const int64_t rank = std::min<int64_t>(it - cdf_.begin(), n() - 1);
  return perm_[static_cast<size_t>(rank)];
}

OpenLoop::OpenLoop(double start, double rate_per_s)
    : start_(start), rate_(rate_per_s) {}

double OpenLoop::DueTime(int64_t i) const {
  return start_ + static_cast<double>(i) / rate_;
}

int64_t OpenLoop::DueBy(double now) const {
  if (now < start_) return 0;
  return static_cast<int64_t>(std::floor((now - start_) * rate_)) + 1;
}

void OpenLoop::Sent(int64_t i, double sent) {
  lateness_.push_back(std::max(0.0, sent - DueTime(i)));
}

double OpenLoop::Completed(int64_t i, double done) const {
  return done - DueTime(i);
}


bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (!ValidMetricName(name) || values_.count(name) > 0) {
    std::fprintf(stderr, "perfbench: bad or duplicate metric '%s'\n",
                 name.c_str());
    std::abort();
  }
  values_[name] = Entry{value, unit};
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : values_) {
    // Shortest text that reads back as the same double: every digit kept.
    char buf[64];
    const auto res = std::to_chars(
        buf, buf + sizeof(buf), std::isfinite(entry.value) ? entry.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + std::string(buf, res.ptr) +
           ", \"unit\": \"" + entry.unit + "\"}";
  }
  return out + "}";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Enable(const std::string& run_id) {
  enabled_ = true;
  run_id_ = run_id;
}

int64_t Tracer::Begin(const std::string& name) {
  if (!enabled_) return -1;
  Span span;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.name = name;
  span.start = Now();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = Now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::Add(const std::string& name, double start, double end) {
  if (!enabled_) return;
  Span span;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.name = name;
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
}

std::map<std::string, double> Tracer::SelfSecondsByLayer(double since) const {
  std::vector<double> child_cover(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_cover[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> by_layer;
  for (const Span& s : spans_) {
    if (s.start < since) continue;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    by_layer[layer] +=
        std::max(0.0, s.end - s.start - child_cover[static_cast<size_t>(s.id)]);
  }
  return by_layer;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"run_id\": \"" << JsonEscape(run_id_) << "\", \"spans\": [\n";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\": %lld, \"parent\": %lld, \"start\": %.9f, "
                  "\"end\": %.9f, \"name\": \"",
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent), s.start, s.end);
    out << buf << JsonEscape(s.name) << "\"}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* name) : id_(Tracer::Global().Begin(name)) {}

ScopedSpan::~ScopedSpan() { Tracer::Global().End(id_); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double LoadAverage1m() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

std::vector<std::string> NeutraliseGrimpEnv() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "GRIMP_", 6) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  return names;
}

}  // namespace perfbench
