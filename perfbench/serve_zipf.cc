// serve_zipf: ModelRegistry -> ImputationServer (result cache on) ->
// NetServer over loopback TCP, one pool thread and one scheduler worker.
//
// Requests are known adult rows with one cell blanked; key k is (row
// k / cols, blanked column k % cols), drawn Zipf(0.99) over a key space
// about forty times the cache, so hits and misses both occur. One
// generator thread drives one connection: a counted warm-up (the scored
// and byte-checked sample), then kRounds rounds of a closed loop with
// kDepth requests pipelined (deep enough to queue and batch) and an open
// loop at a fixed offered rate, each latency timed from the request's due
// time.
//
// The same serving stack, over another workload's registry, is the traced
// probe of the serve and net layers (ProbeServeLayers).

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <deque>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "data/datasets.h"
#include "data/temporal.h"
#include "net/net_server.h"
#include "net/socket.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSetups = 3;
constexpr int kFitEpochs = 5;
constexpr double kTheta = 0.99;
constexpr int64_t kCacheCapacity = 1024;
constexpr int kMaxBatch = 8;
constexpr int kDepth = 16;
// Offered rate of the open loop: about a third of the closed-loop rate
// (6000-8500 responses/s on the 4-vCPU AVX2 host this benchmark was
// defined on), so a stall of the host drains instead of building a queue.
constexpr double kOpenRate = 2000.0;
// Latencies are taken per window of kWindow requests (ten samples beyond
// each window's p95), and the median over windows is reported, so a stall
// of the shared host moves a window, not the result.
constexpr size_t kWindow = 200;
// The open loop is invalid when the generator's send lateness, by the
// median over windows of kLatenessWindow requests of each window's p99,
// exceeds this.
constexpr size_t kLatenessWindow = 1000;
constexpr double kLatenessLimitMs = 5.0;
// Warm-up requests. Accuracy is scored once per distinct key among them,
// so a few hot keys do not decide it.
constexpr int64_t kWarmupRequests = 8000;
// Every kCheckEvery-th warm-up response is compared byte for byte with an
// in-process TransformMany of the same row.
constexpr int64_t kCheckEvery = 64;
constexpr int64_t kMaxChecks = 64;
constexpr int kImputeReps = 21;
constexpr int kRounds = 10;
constexpr int64_t kProbeRequests = 2000;
// A connection that makes no progress for kDrainTimeoutS has lost its
// outstanding responses.
constexpr double kDrainTimeoutS = 10.0;
constexpr double kPollSliceS = 0.5;
constexpr char kModel[] = "adult";

// Server side over a borrowed registry: stops the event loop and the
// scheduler before anything they use can go away.
struct ServeStack {
  std::unique_ptr<grimp::ImputationServer> server;
  std::unique_ptr<grimp::NetServer> net;

  ~ServeStack() {
    if (net) net->Stop();
    if (server) server->scheduler().Shutdown();
  }
};

// Nonblocking line reader over a connected socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  // Spins (never sleeps, so the generator's own wake-ups add no latency)
  // up to `timeout_s` for input, then appends every complete line received
  // to *lines. False on EOF or a socket error.
  bool Poll(double timeout_s, std::deque<std::string>* lines) {
    const double deadline = Now() + std::max(0.0, timeout_s);
    for (;;) {
      pollfd p{fd_, POLLIN, 0};
      const int ready = ::poll(&p, 1, 0);
      if (ready < 0 && errno != EINTR) return false;
      if (ready > 0) break;
      if (Now() >= deadline) return true;
    }
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        buf_.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) return false;
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    size_t start = 0;
    for (size_t nl; (nl = buf_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      lines->emplace_back(buf_, start, nl - start);
    }
    buf_.erase(0, start);
    return true;
  }

 private:
  int fd_;
  std::string buf_;
};

class ServeBench {
 public:
  ServeBench(const RunArgs& args, Report* report)
      : args_(args), report_(report) {}

  // serve_zipf set-up: fit on the adult replica and serve it.
  bool Setup() {
    ScopedSpan span("bench.setup");
    Stop();
    auto table = grimp::GenerateDatasetByName(kModel, kReplicaSeed);
    if (!table.ok()) return false;
    grimp::GrimpOptions options = PinnedOptions(1, kFitEpochs);
    epochs_.Attach(&options);
    auto engine = std::make_unique<grimp::GrimpEngine>(options);
    if (!engine->Fit(*table).ok()) return false;
    owned_registry_ = std::make_unique<grimp::ModelRegistry>();
    if (!owned_registry_->Add(kModel, "1", std::move(engine)).ok()) {
      return false;
    }
    return Start(owned_registry_.get(), kModel, *table);
  }

  // Serves `model` from `registry` (borrowed; must outlive the bench) with
  // the result cache on, behind a NetServer, and connects the generator.
  // Requests are rows of `truth` with one cell blanked.
  bool Start(grimp::ModelRegistry* registry, const std::string& model,
             const grimp::Table& truth) {
    Stop();
    registry_ = registry;
    model_ = model;
    truth_ = truth;
    stds_ = ColumnStds(truth_);
    grimp::ServerOptions server_options;
    server_options.default_model = model_;
    server_options.cache.capacity = kCacheCapacity;
    server_options.scheduler.num_workers = 1;
    server_options.scheduler.max_batch = kMaxBatch;
    server_options.scheduler.batch_linger_seconds = 0.0;
    auto stack = std::make_unique<ServeStack>();
    stack->server =
        std::make_unique<grimp::ImputationServer>(registry_, server_options);
    grimp::NetServerOptions net_options;
    net_options.max_connections = 2;
    stack->net =
        std::make_unique<grimp::NetServer>(stack->server.get(), net_options);
    if (!stack->net->Start().ok()) return false;
    auto client = grimp::TcpClient::Connect("127.0.0.1", stack->net->port());
    if (!client.ok()) return false;
    client_ = std::make_unique<grimp::TcpClient>(std::move(*client));
    reader_ = std::make_unique<LineReader>(client_->fd());
    stack_ = std::move(stack);
    cols_ = truth_.num_cols();
    requests_.clear();
    requests_.reserve(static_cast<size_t>(num_keys()));
    for (int64_t k = 0; k < num_keys(); ++k) {
      requests_.push_back(RequestLine(k));
    }
    return true;
  }

  // Warm-up, counted rather than timed: fills the cache to its steady
  // state, and its responses are the scored and byte-checked sample, so
  // both are the same on every host.
  void Warmup() {
    ZipfKeys warm(num_keys(), kTheta, Mix(args_.seed + 11));
    ClosedLoop(&warm, kWarmupRequests, 0.0, true);
  }

  void Run() {
    Warmup();

    const Phase untraced =
        MeasurePhase(args_.trace ? args_.seconds / 2 : args_.seconds);
    SetEndToEnd(untraced);
    if (!args_.trace) return;
    Tracer::Global().Enable(args_.workload + "-" + std::to_string(args_.seed));
    ProbeConfig config;
    ProbeGraphLayers(truth_, config, args_.seed, report_);
    ProbeLayers();
    const RegistryDelta delta;
    const double start = Now();
    const Phase traced = MeasurePhase(args_.seconds / 2);
    const double wall = Now() - start;
    RecordRegistryLayers(delta, report_);
    Metrics& m = report_->layers;
    m.Set("bench.gen_late_p99_ms", traced.late_p99_ms, "ms");
    m.Set("core.epoch_s", Median(epochs_.rest), "s");
    m.Set("core.first_epoch_s", Median(epochs_.first), "s");
    RecordTraceSummary(1.0 / untraced.req_per_s, 1.0 / traced.req_per_s,
                       start, wall, report_);
  }

 private:
  struct Phase {
    double req_per_s = 0.0;
    std::vector<double> open_latency_ms;
    std::vector<double> lateness_ms;
    double late_p99_ms = 0.0;
  };

  struct Pending {
    int64_t index = 0;
    int64_t key = 0;
  };

  int64_t num_keys() const { return truth_.num_rows() * cols_; }

  std::string RequestLine(int64_t key) const {
    const int64_t row = key / cols_;
    const int blank = static_cast<int>(key % cols_);
    std::string line = "{";
    for (int c = 0; c < cols_; ++c) {
      if (c > 0) line += ",";
      line += "\"" + JsonEscape(truth_.schema().field(c).name) + "\":";
      line += c == blank ? std::string("null")
                         : "\"" + JsonEscape(truth_.column(c).StringAt(row)) +
                               "\"";
    }
    return line + "}";
  }

  grimp::Table RequestTable(int64_t key) const {
    const int64_t row = key / cols_;
    std::vector<std::string> cells = grimp::RowStrings(truth_, row);
    cells[static_cast<size_t>(key % cols_)].clear();
    grimp::Table table(truth_.schema());
    if (!table.AppendRow(cells).ok()) std::abort();
    return table;
  }

  // Handles one response to request `p`; `record` enables scoring and the
  // byte-identity sample.
  void Complete(const Pending& p, const std::string& response, bool record) {
    const bool ok = response.rfind("{\"ok\":true", 0) == 0;
    report_->Check(ok, ok ? std::string()
                          : "served response: " + response.substr(0, 120));
    if (!ok || !record) return;
    if (scored_keys_.insert(p.key).second) {
      const int col = static_cast<int>(p.key % cols_);
      score_.AddString(CellValue(response, col), truth_, p.key / cols_, col,
                       stds_);
    }
    if (p.index % kCheckEvery == 0 &&
        static_cast<int64_t>(check_keys_.size()) < kMaxChecks) {
      check_keys_.push_back(p.key);
      check_responses_.push_back(response);
    }
  }

  // The served value of column `col` in an NDJSON response row.
  std::string CellValue(const std::string& response, int col) const {
    const std::string key =
        "\"" + JsonEscape(truth_.schema().field(col).name) + "\":\"";
    const size_t row = response.find("\"row\":");
    const size_t at = response.find(key, row == std::string::npos ? 0 : row);
    if (at == std::string::npos) return "";
    const size_t begin = at + key.size();
    const size_t end = response.find('"', begin);
    return end == std::string::npos ? ""
                                    : response.substr(begin, end - begin);
  }

  // Closed loop: keeps `depth` requests in flight until `count` requests
  // completed (count > 0) or `seconds` passed. Returns completions.
  int64_t ClosedLoop(ZipfKeys* keys, int64_t count, double seconds,
                     bool record) {
    const double end = Now() + seconds;
    std::deque<Pending> inflight;
    std::deque<std::string> lines;
    int64_t sent = 0;
    int64_t done = 0;
    double last_progress = Now();
    auto more = [&] { return count > 0 ? sent < count : Now() < end; };
    while (more() || !inflight.empty()) {
      while (more() && static_cast<int>(inflight.size()) < kDepth) {
        const int64_t key = keys->Next();
        report_->Check(
            client_->SendLine(requests_[static_cast<size_t>(key)]).ok(),
            "send");
        inflight.push_back(Pending{sent, key});
        ++sent;
      }
      const bool alive = reader_->Poll(kPollSliceS, &lines);
      if (!lines.empty()) last_progress = Now();
      if (!alive || Now() - last_progress > kDrainTimeoutS) {
        // EOF, socket error or a stall: the rest never completes.
        for (size_t i = 0; i < inflight.size(); ++i) {
          report_->Check(false, "closed-loop response lost");
        }
        inflight.clear();
        break;
      }
      while (!lines.empty() && !inflight.empty()) {
        Complete(inflight.front(), lines.front(), record);
        inflight.pop_front();
        lines.pop_front();
        ++done;
      }
    }
    return done;
  }

  // Open loop at kOpenRate for `seconds`.
  void OpenLoopPhase(ZipfKeys* keys, double seconds, Phase* phase) {
    const double start = Now();
    const double end = start + seconds;
    OpenLoop loop(start, kOpenRate);
    std::deque<Pending> inflight;
    std::deque<std::string> lines;
    int64_t sent = 0;
    bool alive = true;
    double last_progress = start;
    while (alive && (Now() < end || !inflight.empty())) {
      const double now = Now();
      if (now < end) {
        const int64_t due = loop.DueBy(now);
        for (; sent < due; ++sent) {
          const int64_t key = keys->Next();
          report_->Check(
              client_->SendLine(requests_[static_cast<size_t>(key)]).ok(),
              "send");
          loop.Sent(sent, Now());
          inflight.push_back(Pending{sent, key});
        }
      }
      const double wait =
          Now() < end ? loop.DueTime(sent) - Now() : kPollSliceS;
      alive = reader_->Poll(wait, &lines);
      const double done = Now();
      if (!lines.empty()) last_progress = done;
      if (done - last_progress > kDrainTimeoutS) alive = false;
      while (!lines.empty() && !inflight.empty()) {
        const Pending p = inflight.front();
        Complete(p, lines.front(), false);
        phase->open_latency_ms.push_back(loop.Completed(p.index, done) * 1e3);
        inflight.pop_front();
        lines.pop_front();
      }
    }
    for (size_t i = 0; i < inflight.size(); ++i) {
      report_->Check(false, "open-loop response lost");
    }
    for (double late : loop.lateness_s()) {
      phase->lateness_ms.push_back(late * 1e3);
    }
  }

  // Closed loop for 40% of `seconds`, then the open loop for the rest.
  // kRounds rounds of a closed loop (40% of each round) then the open loop
  // (60%), so both phases sample the whole run rather than one stretch of
  // the shared host's load.
  Phase MeasurePhase(double seconds) {
    Phase phase;
    ZipfKeys closed_keys(num_keys(), kTheta, Mix(args_.seed + 12));
    ZipfKeys open_keys(num_keys(), kTheta, Mix(args_.seed + 13));
    std::vector<double> rates;
    const double round = seconds / kRounds;
    for (int r = 0; r < kRounds; ++r) {
      {
        ScopedSpan span("net.closed_loop");
        const double t0 = Now();
        const int64_t done = ClosedLoop(&closed_keys, 0, 0.4 * round, false);
        rates.push_back(static_cast<double>(done) / (Now() - t0));
      }
      ScopedSpan span("net.open_loop");
      OpenLoopPhase(&open_keys, 0.6 * round, &phase);
    }
    phase.req_per_s = Median(rates);
    phase.late_p99_ms =
        WindowedPercentile(phase.lateness_ms, kLatenessWindow, 99.0);
    report_->Check(phase.late_p99_ms <= kLatenessLimitMs,
                   "open-loop generator lateness within limit");
    return phase;
  }

  void SetEndToEnd(const Phase& phase) {
    report_->e2e.Set("impute_s", CheckServedRows(), "s");
    report_->context["gen_late_p99_ms"] = std::to_string(phase.late_p99_ms);
    Metrics& m = report_->e2e;
    m.Set("req_per_s", phase.req_per_s, "1/s");
    m.Set("rows_per_s", phase.req_per_s, "1/s");
    m.Set("p50_ms", WindowedPercentile(phase.open_latency_ms, kWindow, 50.0),
          "ms");
    m.Set("p95_ms", WindowedPercentile(phase.open_latency_ms, kWindow, 95.0),
          "ms");
    m.Set("accuracy", score_.Accuracy(), "fraction");
    m.Set("rmse", score_.Rmse(), "sd");
  }

 public:
  // Byte-identity of the sampled served responses against in-process
  // batch TransformMany on the same rows. Returns the batch's median wall
  // time over kImputeReps calls.
  double CheckServedRows() {
    auto handle = registry_->Acquire(model_);
    report_->Check(handle.ok(), "registry acquire");
    if (!handle.ok()) return 0.0;
    std::vector<double> seconds;
    std::vector<grimp::Table> tables;
    for (int rep = 0; rep < kImputeReps; ++rep) {
      tables.clear();
      for (int64_t key : check_keys_) tables.push_back(RequestTable(key));
      std::vector<grimp::Table*> ptrs;
      for (grimp::Table& t : tables) ptrs.push_back(&t);
      const double t0 = Now();
      const grimp::Status s = handle->engine().TransformMany(ptrs);
      seconds.push_back(Now() - t0);
      report_->Check(s.ok(), "in-process TransformMany");
    }
    const std::string prefix = "{\"ok\":true,\"model\":\"" + handle->name() +
                               "@" + handle->version() + "\",\"row\":";
    for (size_t i = 0; i < tables.size(); ++i) {
      const std::string want =
          prefix + grimp::RowToJson(tables[i], 0) + "}";
      const bool same = want == check_responses_[i];
      report_->Check(same, same ? std::string()
                                : "served row differs from TransformMany: "
                                  "got " + check_responses_[i] +
                                      " want " + want);
    }
    report_->Check(!check_keys_.empty(), "identity sample is non-empty");
    return Median(seconds);
  }

  // Per-layer probes of the serve and net layers: in-process
  // HandleRequestLine, serial TCP round trips of the same mix, a pipelined
  // closed loop for the cache and batching counters, and TransformMany on
  // batches of request rows.
  void ProbeLayers() {
    Metrics& m = report_->layers;
    {
      const RegistryDelta delta;
      ZipfKeys keys(num_keys(), kTheta, Mix(args_.seed + 17));
      ClosedLoop(&keys, kProbeRequests, 0.0, false);
      const double hits =
          static_cast<double>(delta.Counter("serve.cache.hits"));
      const double misses =
          static_cast<double>(delta.Counter("serve.cache.misses"));
      m.Set("serve.cache_hit_frac", hits / std::max(1.0, hits + misses),
            "fraction");
      const int64_t batches = delta.HistogramCount("serve.batch_size");
      m.Set("serve.batch_size_mean",
            batches > 0 ? delta.HistogramSum("serve.batch_size") /
                              static_cast<double>(batches)
                        : 0.0,
            "count");
      int64_t rejected = 0;
      for (const char* reason :
           {"queue_full", "schema", "deadline", "shed", "shutdown"}) {
        rejected += delta.Counter(std::string("serve.rejected.") + reason);
      }
      m.Set("serve.rejected", static_cast<double>(rejected), "count");
    }
    std::vector<double> handle_us;
    ZipfKeys handle_keys(num_keys(), kTheta, Mix(args_.seed + 14));
    for (int64_t i = 0; i < kProbeRequests; ++i) {
      const std::string& line =
          requests_[static_cast<size_t>(handle_keys.Next())];
      ScopedSpan span("serve.handle");
      const double t0 = Now();
      const std::string response = stack_->server->HandleRequestLine(line);
      handle_us.push_back((Now() - t0) * 1e6);
      report_->Check(response.rfind("{\"ok\":true", 0) == 0,
                     "in-process response");
    }
    std::vector<double> tcp_us;
    ZipfKeys tcp_keys(num_keys(), kTheta, Mix(args_.seed + 15));
    std::deque<std::string> lines;
    for (int64_t i = 0; i < kProbeRequests; ++i) {
      ScopedSpan span("net.round_trip");
      const double t0 = Now();
      bool ok = client_->SendLine(requests_[static_cast<size_t>(
                                      tcp_keys.Next())])
                    .ok();
      while (ok && lines.empty()) ok = reader_->Poll(kDrainTimeoutS, &lines);
      tcp_us.push_back((Now() - t0) * 1e6);
      report_->Check(ok && lines.front().rfind("{\"ok\":true", 0) == 0,
                     "serial TCP response");
      lines.clear();
    }
    const double handle_p50 = NearestRank(handle_us, 50.0);
    m.Set("serve.handle_us_p50", handle_p50, "us");
    m.Set("serve.handle_us_p99", NearestRank(handle_us, 99.0), "us");
    m.Set("net.overhead_us", NearestRank(tcp_us, 50.0) - handle_p50, "us");

    auto handle = registry_->Acquire(model_);
    report_->Check(handle.ok(), "registry acquire");
    if (!handle.ok()) return;
    ZipfKeys batch_keys(num_keys(), kTheta, Mix(args_.seed + 16));
    std::vector<double> per_row_us;
    for (int64_t b = 0; b < kProbeRequests / kMaxBatch; ++b) {
      std::vector<grimp::Table> tables;
      for (int i = 0; i < kMaxBatch; ++i) {
        tables.push_back(RequestTable(batch_keys.Next()));
      }
      std::vector<grimp::Table*> ptrs;
      for (grimp::Table& t : tables) ptrs.push_back(&t);
      ScopedSpan span("core.transform");
      const double t0 = Now();
      report_->Check(handle->engine().TransformMany(ptrs).ok(),
                     "batch TransformMany");
      per_row_us.push_back((Now() - t0) * 1e6 / kMaxBatch);
    }
    m.Set("core.transform_us_per_row", Median(per_row_us), "us");
  }

 private:
  void Stop() {
    reader_.reset();
    client_.reset();
    stack_.reset();
  }

  const RunArgs& args_;
  Report* report_;
  std::unique_ptr<grimp::ModelRegistry> owned_registry_;  // serve_zipf only
  grimp::ModelRegistry* registry_ = nullptr;
  std::string model_;
  grimp::Table truth_;
  std::vector<double> stds_;
  int cols_ = 0;
  std::vector<std::string> requests_;
  EpochLog epochs_;
  std::unique_ptr<ServeStack> stack_;
  std::unique_ptr<grimp::TcpClient> client_;
  std::unique_ptr<LineReader> reader_;

  std::unordered_set<int64_t> scored_keys_;
  Score score_;
  std::vector<int64_t> check_keys_;
  std::vector<std::string> check_responses_;
};

}  // namespace

void ProbeServeLayers(const RunArgs& args, grimp::ModelRegistry* registry,
                      const std::string& model, const grimp::Table& rows,
                      Report* report) {
  ServeBench bench(args, report);
  if (!bench.Start(registry, model, rows)) {
    report->Check(false, "start the serving probe");
    return;
  }
  bench.Warmup();
  bench.CheckServedRows();
  bench.ProbeLayers();
}

void RunServeZipf(const RunArgs& args, Report* report) {
  grimp::ThreadPool::SetGlobalThreads(1);
  report->context["pool_threads"] = "1";
  report->context["pipeline_depth"] = "0";
  report->context["scheduler_workers"] = "1";
  // Generator (main) thread + scheduler worker + net event loop.
  report->context["threads_total"] = "3";
  report->context["connections"] = "1";
  report->context["open_loop_rate_per_s"] = std::to_string(kOpenRate);
  report->context["closed_loop_depth"] = std::to_string(kDepth);

  ServeBench bench(args, report);
  if (!MeasureSetup(kSetups, [&] { return bench.Setup(); }, report)) return;
  bench.Run();
}

}  // namespace perfbench
