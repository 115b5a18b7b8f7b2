// Concurrency contract of GrimpEngine: after Fit, Transform and
// TransformMany (batch and stream mode) are const and touch no shared
// mutable state, so any number of threads may impute on one engine
// simultaneously and every result must be bit-identical to a serial call.
// Run under GRIMP_SANITIZE=thread to catch violations the assertions can't
// see (the TSan build also reruns this suite with the arena off).
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "data/temporal.h"
#include "stream/live_graph.h"

namespace grimp {
namespace {

Table TrainingTable() {
  Schema schema({{"brand", AttrType::kCategorical},
                 {"model", AttrType::kCategorical},
                 {"price", AttrType::kNumerical}});
  Table t(schema);
  const char* brands[] = {"acer", "dell", "apple", "lenovo"};
  const char* models[] = {"swift", "xps", "mac", "yoga"};
  const char* prices[] = {"4", "7", "12", "6"};
  for (int rep = 0; rep < 4; ++rep) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(t.AppendRow({brands[i], models[i], prices[i]}).ok());
    }
  }
  return t;
}

Table DirtyRow(int which) {
  Table t(TrainingTable().schema());
  switch (which % 3) {
    case 0:
      EXPECT_TRUE(t.AppendRow({"acer", "", "4"}).ok());
      break;
    case 1:
      EXPECT_TRUE(t.AppendRow({"", "xps", "7"}).ok());
      break;
    default:
      EXPECT_TRUE(t.AppendRow({"apple", "mac", ""}).ok());
      break;
  }
  return t;
}

GrimpOptions EngineOptions() {
  GrimpOptions options;
  options.dim = 8;
  options.shared_hidden = 16;
  options.task_hidden = 16;
  options.max_epochs = 10;
  options.validation_fraction = 0.0;
  options.seed = 7;
  return options;
}

std::unique_ptr<GrimpEngine> FitEngine(
    const GrimpOptions& options = EngineOptions()) {
  auto engine = std::make_unique<GrimpEngine>(options);
  EXPECT_TRUE(engine->Fit(TrainingTable()).ok());
  return engine;
}

std::vector<std::string> RowCells(const Table& table) {
  std::vector<std::string> cells;
  for (int c = 0; c < table.num_cols(); ++c) {
    cells.push_back(table.column(c).StringAt(0));
  }
  return cells;
}

// Imputes copies of `requests` in one batch-mode TransformMany call.
Result<std::vector<Table>> TransformCopies(const GrimpEngine& engine,
                                           std::vector<Table> requests) {
  std::vector<Table*> pointers;
  for (Table& t : requests) pointers.push_back(&t);
  GRIMP_RETURN_IF_ERROR(engine.TransformMany(pointers));
  return requests;
}

TEST(EngineConcurrentTest, ParallelTransformsAreBitIdenticalToSerial) {
  auto engine = FitEngine();

  // Serial baselines for each of the three request shapes.
  std::vector<std::vector<std::string>> baseline;
  for (int which = 0; which < 3; ++which) {
    auto result = engine->Transform(DirtyRow(which));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    baseline.push_back(RowCells(*result));
  }

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 5;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        const int which = (t + i) % 3;
        auto result = engine->Transform(DirtyRow(which));
        if (!result.ok() ||
            RowCells(*result) != baseline[static_cast<size_t>(which)]) {
          mismatches[t]++;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST(EngineConcurrentTest, TransformBatchMatchesIndividualTransforms) {
  auto engine = FitEngine();

  std::vector<Table> requests;
  for (int which = 0; which < 3; ++which) requests.push_back(DirtyRow(which));
  auto batched = TransformCopies(*engine, requests);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched->size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    auto solo = engine->Transform(requests[i]);
    ASSERT_TRUE(solo.ok()) << solo.status().ToString();
    EXPECT_EQ(RowCells((*batched)[i]), RowCells(*solo)) << "request " << i;
  }
}

TEST(EngineConcurrentTest, SingleRequestBatchEqualsTransform) {
  auto engine = FitEngine();
  const Table dirty = DirtyRow(0);
  auto solo = engine->Transform(dirty);
  auto batched = TransformCopies(*engine, {dirty});
  ASSERT_TRUE(solo.ok() && batched.ok());
  ASSERT_EQ(batched->size(), 1u);
  EXPECT_EQ(RowCells((*batched)[0]), RowCells(*solo));
}

TEST(EngineConcurrentTest, ConcurrentBatchesAreBitIdentical) {
  auto engine = FitEngine();

  std::vector<Table> requests;
  for (int which = 0; which < 3; ++which) requests.push_back(DirtyRow(which));
  auto baseline = TransformCopies(*engine, requests);
  ASSERT_TRUE(baseline.ok());
  std::vector<std::vector<std::string>> expected;
  for (const Table& t : *baseline) expected.push_back(RowCells(t));

  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto result = TransformCopies(*engine, requests);
      if (!result.ok() || result->size() != expected.size()) {
        mismatches[t] = 1;
        return;
      }
      for (size_t i = 0; i < expected.size(); ++i) {
        if (RowCells((*result)[i]) != expected[i]) mismatches[t]++;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

// Every cell of `table`, row-major.
std::vector<std::string> AllCells(const Table& table) {
  std::vector<std::string> cells;
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (int c = 0; c < table.num_cols(); ++c) {
      cells.push_back(table.column(c).StringAt(r));
    }
  }
  return cells;
}

TEST(EngineConcurrentTest, ConcurrentStreamingTransformsAreBitIdentical) {
  GrimpOptions options = EngineOptions();
  options.train.mode = TrainMode::kSampled;
  options.train.batch_size = 8;
  options.train.fanouts = {2, 2};
  auto engine = FitEngine(options);

  // One live graph: the training rows followed by a window of dirty rows.
  Table live_table = TrainingTable();
  constexpr int kWindowRows = 6;
  const int64_t row_begin = live_table.num_rows();
  for (int which = 0; which < kWindowRows; ++which) {
    ASSERT_TRUE(live_table.AppendRow(RowStrings(DirtyRow(which), 0)).ok());
  }
  LiveGraphOptions live_options;
  live_options.dim = options.dim;
  live_options.seed = options.seed;
  auto live_or = LiveGraph::Create(live_table, live_options);
  ASSERT_TRUE(live_or.ok()) << live_or.status().ToString();
  const LiveGraph& live = **live_or;

  // Imputes a copy of the window in stream mode with `nonce`.
  const auto stream_window = [&](uint64_t nonce) {
    Table window(live.table().schema());
    for (int64_t r = row_begin; r < live.table().num_rows(); ++r) {
      EXPECT_TRUE(window.AppendRow(RowStrings(live.table(), r)).ok());
    }
    const StreamContext ctx = live.Context(row_begin, {}, nonce);
    TransformOptions transform;
    transform.stream = &ctx;
    Table* window_ptr = &window;
    const Status status = engine->TransformMany(
        std::span<Table* const>(&window_ptr, 1), transform);
    return status.ok() ? AllCells(window) : std::vector<std::string>{};
  };

  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 200;
  std::vector<std::vector<std::string>> serial;
  for (int t = 0; t < kThreads; ++t) {
    serial.push_back(stream_window(static_cast<uint64_t>(t)));
    ASSERT_FALSE(serial.back().empty());
  }
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        if (stream_window(static_cast<uint64_t>(t)) !=
            serial[static_cast<size_t>(t)]) {
          mismatches[t]++;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace grimp
