// The four perfbench workloads and the pieces they share: the run report,
// registry counter deltas, pinned GRIMP options, scoring and the traced
// graph-layer probe.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/options.h"
#include "harness.h"
#include "table/table.h"

namespace grimp {
class ModelRegistry;
}  // namespace grimp

namespace perfbench {

// The dataset replicas are generated from a fixed seed, like the paper's
// fixed datasets, and the model's seed (GrimpOptions::seed, configuration
// of the system under test) is fixed too. --seed picks the inputs: which
// cells are missing and the request key streams. Accuracy then compares
// like with like across seeds.
inline constexpr uint64_t kReplicaSeed = 1;
inline constexpr uint64_t kModelSeed = 42;

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory inside the checkout for spill files and saved models;
  // created and removed by main.
  std::string work_dir;
};

// What one run produced. `e2e` holds the end-to-end metrics of an untraced
// measurement; `layers` the per-layer metrics of a traced run.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics e2e;
  Metrics layers;
  // Run context, printed as one JSON object: key -> JSON value text.
  std::map<std::string, std::string> context;

  // Counts one operation or output check; a failure is logged to stderr.
  void Check(bool ok, const std::string& what);
};

// Snapshot of the MetricsRegistry counters and histograms the per-layer
// metrics use; each accessor is the increase since construction.
class RegistryDelta {
 public:
  RegistryDelta();
  int64_t Counter(const std::string& name) const;
  double HistogramSum(const std::string& name) const;
  int64_t HistogramCount(const std::string& name) const;

 private:
  std::map<std::string, int64_t> counters_;
  std::map<std::string, double> sums_;
  std::map<std::string, int64_t> counts_;
};

// GRIMP options with the model seed fixed, every thread and pipeline knob
// pinned (never "auto") and a fixed epoch count: patience equals the epoch
// budget, so early stopping can never end a run before max_epochs.
grimp::GrimpOptions PinnedOptions(int threads, int epochs);

// Collects epoch wall times from TrainCallbacks and mirrors each epoch into
// the tracer as a "core.epoch" span under the open span.
struct EpochLog {
  std::vector<double> first;  // first epoch of each training run
  std::vector<double> rest;   // every later epoch
  void Attach(grimp::GrimpOptions* options);
};

// Accuracy on categorical cells and RMSE on numerical cells, the latter in
// units of the truth column's standard deviation.
struct Score {
  int64_t cat_cells = 0;
  int64_t cat_correct = 0;
  int64_t num_cells = 0;
  double sq_norm = 0.0;

  // Scores cell (row, col) of `imputed` against (truth_row, col) of truth.
  void Add(const grimp::Table& imputed, int64_t row,
           const grimp::Table& truth, int64_t truth_row, int col,
           const std::vector<double>& stds);
  // Same, with the imputed value given as its string form.
  void AddString(const std::string& value, const grimp::Table& truth,
                 int64_t truth_row, int col, const std::vector<double>& stds);
  double Accuracy() const;
  double Rmse() const;
};

// Per-column standard deviation of numerical columns (1 elsewhere or when
// a column is constant).
std::vector<double> ColumnStds(const grimp::Table& truth);

// Order-sensitive fingerprint of every cell of a table.
uint64_t TableFingerprint(const grimp::Table& table);

// Traced probe of the graph and embedding layers on `table`: times
// GraphBuilder::Build, NgramFeatureInit::Init and, over the workload's kind
// of store, cold shard loads and NeighborSampler::Sample batches. Fills
// graph.build_s, embedding.init_s, graph.sample_ms and (sharded only)
// graph.shard_load_ms.
struct ProbeConfig {
  bool sharded = false;
  int num_shards = 1;
  int64_t budget_bytes = 0;
  std::string spill_dir;
  std::vector<int> fanouts = {5, 5};
  int batch_size = 256;
  int dim = 32;
};
void ProbeGraphLayers(const grimp::Table& table, const ProbeConfig& config,
                      uint64_t seed, Report* report);

// Registry-derived per-layer metrics over the interval since `delta` was
// taken: tensor.gemm_flops, common.pool_parallel_frac, the shard counters,
// core.pipeline_stall_frac and tensor.arena_high_water_mb.
void RecordRegistryLayers(const RegistryDelta& delta, Report* report);

// Median over repeated set-ups: runs `setup` `times` times and stores the
// median wall time as setup_s. Returns false if any set-up failed.
bool MeasureSetup(int times, const std::function<bool()>& setup,
                  Report* report);

// Trace-mode bookkeeping for a workload's measured phase, which runs once
// untraced and once traced for the same duration: the two halves' time per
// unit of work give the tracing overhead, and the spans that started at or
// after `traced_start` give per-layer self time and coverage.
void RecordTraceSummary(double untraced_unit_s, double traced_unit_s,
                        double traced_start, double traced_wall_s,
                        Report* report);

// Traced probe of the serve and net layers: serves `model` from `registry`
// through an ImputationServer (result cache on) and a NetServer on
// loopback, with requests made from rows of `rows` with one cell blanked.
// Checks a sample of responses byte for byte against in-process
// TransformMany and fills the serve.* and net.* per-layer metrics and
// core.transform_us_per_row.
void ProbeServeLayers(const RunArgs& args, grimp::ModelRegistry* registry,
                      const std::string& model, const grimp::Table& rows,
                      Report* report);

void RunOfflineFull(const RunArgs& args, Report* report);
void RunOfflineSharded(const RunArgs& args, Report* report);
void RunServeZipf(const RunArgs& args, Report* report);
void RunStreamDrift(const RunArgs& args, Report* report);

// Every per-layer metric with its unit, in the order BENCHMARK.json lists
// them; a traced run reports all of them, 0 where the workload leaves the
// layer idle.
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
