// The determinism contract of GrimpEngine and StreamingEngine, checked from
// one table (DESIGN.md §4, "Determinism contract"). Each row of kRows
// names one axis, the stages it compares and the relation that holds. A
// row generates one case per point of the matrix over the other axes
// ({threads 4, 1} x {arena on, off} x {SIMD avx2, scalar} x {pipeline
// depth 0, 4} x {store sharded-4, sharded-1, tiny budget, in-memory, the
// sharded-4 model loaded in memory}):
// the case runs one canonical workload under the row's reference value and
// under its variant value, and compares the row's stages bit for bit or
// within the row's tolerance.
//
// The canonical workload: a sampled GrimpEngine::Fit with a validation
// split, a two-table TransformMany plus a solo Transform, then a
// StreamingEngine over the fit prefix with two IngestBatch calls,
// ImputeWindow, FineTune and ImputeWindow again. Every axis is set in
// process — threads through ThreadPool::SetGlobalThreads, the arena
// through TensorArena::SetEnabled, the SIMD tier through SetSimdLevel, the
// pipeline depth and the store through GrimpOptions — never through the
// environment.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "data/temporal.h"
#include "stream/streaming_engine.h"
#include "tensor/arena.h"
#include "tensor/simd.h"

namespace grimp {
namespace {

enum class Store {
  kSharded4,    // four shards, ample budget
  kSharded1,    // one spilled shard
  kTinyBudget,  // four shards, a 1-byte budget: every acquire may evict
  kInMemory,    // fit and live graph in memory
  // The sharded-4 model, saved and loaded (a model file carries no store
  // config, so it loads in memory), over an in-memory live graph.
  kLoadedInMemory,
};

const char* StoreName(Store store) {
  switch (store) {
    case Store::kSharded4:
      return "sharded4";
    case Store::kSharded1:
      return "sharded1";
    case Store::kTinyBudget:
      return "tiny_budget";
    case Store::kInMemory:
      return "in_memory";
    case Store::kLoadedInMemory:
      return "loaded_in_memory";
  }
  return "";
}

// One point of the matrix.
struct Config {
  int threads = 4;
  bool arena = true;
  SimdLevel simd = SimdLevel::kAvx2;
  int pipeline_depth = 0;
  Store store = Store::kSharded4;

  std::string Key() const {
    return "t" + std::to_string(threads) + (arena ? "_arena_" : "_heap_") +
           SimdLevelName(simd) + "_d" + std::to_string(pipeline_depth) +
           "_" + StoreName(store);
  }
};

// What the workload produced, one field per stage.
struct Fingerprint {
  std::vector<double> fit_losses;         // per epoch: train, validation
  std::vector<std::string> transformed;   // TransformMany pair + solo cells
  std::vector<float> live_features;       // after both ingests
  std::vector<int32_t> live_adjacency;    // every neighbor list, by node
  std::vector<std::string> window;        // ImputeWindow before FineTune
  std::vector<double> fine_tune;          // the FineTune summary
  std::vector<std::string> tuned_window;  // ImputeWindow after FineTune
};

enum Stage : unsigned {
  kFit = 1u << 0,
  kTransform = 1u << 1,
  kLive = 1u << 2,
  kWindow = 1u << 3,
  kFineTune = 1u << 4,
  kTunedWindow = 1u << 5,
  kEveryStage = kFit | kTransform | kLive | kWindow | kFineTune | kTunedWindow,
};

// One row of the table: an axis (its reference and variant values), the
// stages compared and the relation. rtol == 0 means bit-identical;
// otherwise only the fit losses are compared, each within rtol of the
// reference.
struct Row {
  const char* name;
  void (*reference)(Config*);
  void (*variant)(Config*);
  unsigned stages;
  double rtol;
};

// The table.
const Row kRows[] = {
    // Fixed-chunk ParallelFor: the thread count never changes a result.
    {"threads_1_vs_4", [](Config* c) { c->threads = 4; },
     [](Config* c) { c->threads = 1; }, kEveryStage, 0.0},
    // Pooled tensor memory is pure recycling.
    {"arena_off_vs_on", [](Config* c) { c->arena = true; },
     [](Config* c) { c->arena = false; }, kEveryStage, 0.0},
    // Batch contents are keyed on (seed, epoch, batch), never on who
    // prepared them.
    {"pipeline_depth_4_vs_0", [](Config* c) { c->pipeline_depth = 0; },
     [](Config* c) { c->pipeline_depth = 4; }, kEveryStage, 0.0},
    // Sampler draws are keyed on (nonce, layer, type, node), so neither the
    // shard count nor the resident budget can change a subgraph.
    {"shards_1_vs_4", [](Config* c) { c->store = Store::kSharded4; },
     [](Config* c) { c->store = Store::kSharded1; }, kEveryStage, 0.0},
    {"tiny_budget_vs_ample", [](Config* c) { c->store = Store::kSharded4; },
     [](Config* c) { c->store = Store::kTinyBudget; }, kEveryStage, 0.0},
    // One fitted model, its live graph sharded vs in memory. Fit is not
    // compared across store kinds: in-memory Fit trains on the full corpus
    // with whole-graph validation, sharded Fit on a capped corpus with
    // sampled validation. FineTune is not compared either: over the
    // in-memory live store its validation runs whole-graph too (so its
    // best_val_loss differs), and the best-weights restore that follows
    // validation decides the window after it.
    {"store_in_memory_vs_sharded",
     [](Config* c) { c->store = Store::kSharded4; },
     [](Config* c) { c->store = Store::kLoadedInMemory; },
     kTransform | kLive | kWindow, 0.0},
    // AVX2 GEMMs fuse multiply-adds where scalar ones round twice: the
    // per-epoch losses agree to the kernels' AllClose rtol (simd_test);
    // imputed cells are not claimed.
    {"simd_scalar_vs_avx2", [](Config* c) { c->simd = SimdLevel::kAvx2; },
     [](Config* c) { c->simd = SimdLevel::kScalar; }, kFit, 1e-4},
};

// One generated case: a row at one point of the matrix.
struct Case {
  const Row* row;
  Config reference;
  Config variant;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.row->name << " at " << c.reference.Key();
}

// Every (row, point) pair, deduplicated: a row fixes its own axis, so the
// points that differ only in that axis give one case.
std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (const Row& row : kRows) {
    std::set<std::string> seen;
    for (const int threads : {4, 1}) {
      for (const bool arena : {true, false}) {
        for (const SimdLevel simd : {SimdLevel::kAvx2, SimdLevel::kScalar}) {
          for (const int depth : {0, 4}) {
            for (const Store store :
                 {Store::kSharded4, Store::kSharded1, Store::kTinyBudget,
                  Store::kInMemory, Store::kLoadedInMemory}) {
              Case c{&row, Config{threads, arena, simd, depth, store}, {}};
              row.reference(&c.reference);
              c.variant = c.reference;
              row.variant(&c.variant);
              if (seen.insert(c.reference.Key()).second) cases.push_back(c);
            }
          }
        }
      }
    }
  }
  return cases;
}

constexpr int64_t kFitRows = 192;
constexpr int64_t kBatchRows = 32;

TemporalStream Data() {
  TemporalStreamSpec spec;
  spec.rows = kFitRows + 4 * kBatchRows;
  spec.tick_rows = 16;
  spec.cardinality = 6;
  auto stream = GenerateTemporalStream(spec, /*seed=*/29);
  EXPECT_TRUE(stream.ok()) << stream.status().ToString();
  return std::move(*stream);
}

Table Rows(const Table& source, int64_t begin, int64_t end) {
  Table out(source.schema());
  for (int64_t r = begin; r < end; ++r) {
    EXPECT_TRUE(out.AppendRow(RowStrings(source, r)).ok());
  }
  return out;
}

void AppendCells(const Table& table, std::vector<std::string>* out) {
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (int c = 0; c < table.num_cols(); ++c) {
      out->push_back(table.column(c).StringAt(r));
    }
  }
}

GraphConfig StoreConfig(Store store) {
  GraphConfig graph;
  if (store == Store::kInMemory) return graph;
  // kLoadedInMemory fits like kSharded4; see RunWorkload.
  graph.shard_mode = ShardMode::kSharded;
  graph.num_shards = store == Store::kSharded1 ? 1 : 4;
  if (store == Store::kTinyBudget) graph.max_resident_bytes = 1;
  return graph;
}

GrimpOptions WorkloadOptions(const Config& config) {
  GrimpOptions options;
  options.dim = 8;
  options.shared_hidden = 16;
  options.task_hidden = 16;
  options.max_epochs = 4;
  options.seed = 23;
  options.train.mode = TrainMode::kSampled;
  options.train.batch_size = 64;
  options.train.fanouts = {3, 3};
  options.train.pipeline_depth = config.pipeline_depth;
  options.graph = StoreConfig(config.store);
  options.num_threads = config.threads;
  return options;
}

Fingerprint RunWorkload(const Config& config) {
  ThreadPool::SetGlobalThreads(config.threads);
  TensorArena::Global().SetEnabled(config.arena);
  SetSimdLevel(config.simd);
  const TemporalStream data = Data();
  const Table prefix = Rows(data.dirty, 0, kFitRows);
  Fingerprint fp;

  std::vector<double> epoch_losses;
  GrimpOptions options = WorkloadOptions(config);
  options.callbacks.on_epoch_end = [&epoch_losses](const EpochStats& stats) {
    epoch_losses.push_back(stats.train_loss);
    epoch_losses.push_back(stats.val_loss);
    return true;
  };
  auto engine = std::make_unique<GrimpEngine>(options);
  const Status fit = engine->Fit(prefix);
  EXPECT_TRUE(fit.ok()) << fit.ToString();
  fp.fit_losses = epoch_losses;

  if (config.store == Store::kLoadedInMemory) {
    // The live graph takes its store from the engine's GraphConfig, which a
    // model file does not carry: a loaded copy of the sharded-fit model is
    // the same model over an in-memory live graph.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("grimp_equivalence_" + std::to_string(getpid()) + ".bin"))
            .string();
    EXPECT_TRUE(engine->Save(path).ok());
    auto loaded = GrimpEngine::Load(path);
    std::filesystem::remove(path);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    if (!loaded.ok()) return fp;
    engine = std::move(*loaded);
  }

  Table first = Rows(data.dirty, kFitRows, kFitRows + kBatchRows);
  Table second =
      Rows(data.dirty, kFitRows + kBatchRows, kFitRows + 2 * kBatchRows);
  Table* pair[] = {&first, &second};
  EXPECT_TRUE(engine->TransformMany(pair).ok());
  auto solo = engine->Transform(
      Rows(data.dirty, kFitRows + 2 * kBatchRows, kFitRows + 3 * kBatchRows));
  EXPECT_TRUE(solo.ok()) << solo.status().ToString();
  AppendCells(first, &fp.transformed);
  AppendCells(second, &fp.transformed);
  if (solo.ok()) AppendCells(*solo, &fp.transformed);

  StreamingOptions stream_options;
  stream_options.window_rows = kBatchRows;
  stream_options.fanouts = {3, 3};
  stream_options.fine_tune_epochs = 2;
  auto stream_or =
      StreamingEngine::Create(std::move(engine), prefix, stream_options);
  EXPECT_TRUE(stream_or.ok()) << stream_or.status().ToString();
  if (!stream_or.ok()) return fp;
  StreamingEngine& stream = **stream_or;
  for (int64_t b = 0; b < 2; ++b) {
    StreamBatch batch;
    for (int64_t r = kFitRows + b * kBatchRows;
         r < kFitRows + (b + 1) * kBatchRows; ++r) {
      batch.rows.push_back(RowStrings(data.dirty, r));
    }
    EXPECT_TRUE(stream.IngestBatch(batch).ok());
  }
  const Tensor& features = stream.live().node_features();
  fp.live_features.assign(features.data(), features.data() + features.size());
  const GraphStore& store = *stream.live().store();
  for (int64_t v = 0; v < store.num_nodes(); ++v) {
    ShardScope scope = store.Acquire(store.ShardOf(v));
    for (int t = 0; t < store.num_edge_types(); ++t) {
      const auto [begin, end] = scope->Neighbors(t, v);
      fp.live_adjacency.push_back(static_cast<int32_t>(end - begin));
      fp.live_adjacency.insert(fp.live_adjacency.end(), begin, end);
    }
  }

  auto before = stream.ImputeWindow();
  auto tuned = stream.FineTune();
  auto after = stream.ImputeWindow();
  EXPECT_TRUE(before.ok() && tuned.ok() && after.ok());
  if (before.ok()) AppendCells(*before, &fp.window);
  if (after.ok()) AppendCells(*after, &fp.tuned_window);
  if (tuned.ok()) {
    fp.fine_tune = {static_cast<double>(tuned->epochs_run),
                    static_cast<double>(tuned->steps_run),
                    tuned->final_train_loss, tuned->best_val_loss,
                    static_cast<double>(tuned->num_train_samples),
                    static_cast<double>(tuned->num_val_samples)};
  }
  return fp;
}

// Each configuration runs once per process; rows share the reference.
const Fingerprint& FingerprintOf(const Config& config) {
  static std::map<std::string, Fingerprint> cache;
  auto it = cache.find(config.Key());
  if (it == cache.end()) {
    it = cache.emplace(config.Key(), RunWorkload(config)).first;
  }
  return it->second;
}

template <typename T>
void ExpectBitEqual(const std::vector<T>& reference,
                    const std::vector<T>& variant, const char* stage) {
  ASSERT_FALSE(reference.empty()) << stage << ": nothing recorded";
  ASSERT_EQ(reference.size(), variant.size()) << stage;
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(std::memcmp(&reference[i], &variant[i], sizeof(T)), 0)
        << stage << " differs at entry " << i;
  }
}

void ExpectCellsEqual(const std::vector<std::string>& reference,
                      const std::vector<std::string>& variant,
                      const char* stage) {
  ASSERT_FALSE(reference.empty()) << stage << ": nothing recorded";
  ASSERT_EQ(reference.size(), variant.size()) << stage;
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(reference[i], variant[i]) << stage << " differs at cell " << i;
  }
}

class EquivalenceTest : public testing::TestWithParam<Case> {};

TEST_P(EquivalenceTest, VariantMatchesReference) {
  const Row& row = *GetParam().row;
  const Config& ref_config = GetParam().reference;
  const Config& var_config = GetParam().variant;
  if ((ref_config.simd == SimdLevel::kAvx2 ||
       var_config.simd == SimdLevel::kAvx2) &&
      !SimdAvx2Supported()) {
    GTEST_SKIP() << "this CPU or build has no AVX2 kernels";
  }
  const Fingerprint& reference = FingerprintOf(ref_config);
  const Fingerprint& variant = FingerprintOf(var_config);
  if (row.rtol > 0.0) {
    ASSERT_EQ(row.stages, static_cast<unsigned>(kFit));
    ASSERT_FALSE(reference.fit_losses.empty());
    ASSERT_EQ(reference.fit_losses.size(), variant.fit_losses.size());
    for (size_t i = 0; i < reference.fit_losses.size(); ++i) {
      EXPECT_NEAR(variant.fit_losses[i], reference.fit_losses[i],
                  row.rtol * std::abs(reference.fit_losses[i]))
          << "epoch " << i / 2 << (i % 2 == 0 ? " train" : " validation")
          << " loss";
    }
    return;
  }
  if (row.stages & kFit) {
    ExpectBitEqual(reference.fit_losses, variant.fit_losses, "fit losses");
  }
  if (row.stages & kTransform) {
    ExpectCellsEqual(reference.transformed, variant.transformed,
                     "transformed cells");
  }
  if (row.stages & kLive) {
    ExpectBitEqual(reference.live_features, variant.live_features,
                   "live features");
    ExpectBitEqual(reference.live_adjacency, variant.live_adjacency,
                   "live adjacency");
  }
  if (row.stages & kWindow) {
    ExpectCellsEqual(reference.window, variant.window, "window");
  }
  if (row.stages & kFineTune) {
    ExpectBitEqual(reference.fine_tune, variant.fine_tune,
                   "fine-tune summary");
  }
  if (row.stages & kTunedWindow) {
    ExpectCellsEqual(reference.tuned_window, variant.tuned_window,
                     "window after fine-tune");
  }
}

INSTANTIATE_TEST_SUITE_P(equivalence, EquivalenceTest,
                         testing::ValuesIn(AllCases()),
                         [](const testing::TestParamInfo<Case>& info) {
                           return std::string(info.param.row->name) + "_at_" +
                                  info.param.reference.Key();
                         });

}  // namespace
}  // namespace grimp
