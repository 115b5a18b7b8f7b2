#include <gtest/gtest.h>

#include "baselines/mean_mode.h"
#include "baselines/missforest.h"
#include "baselines/zoo.h"
#include "core/grimp.h"
#include "data/datasets.h"
#include "eval/error_analysis.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "table/stats.h"

namespace grimp {
namespace {

// A miniature replica of the paper's Figure-8 protocol on one dataset:
// generate, corrupt with MCAR, run several algorithms on the *same* dirty
// table, score against ground truth.
TEST(IntegrationTest, MiniFigure8Protocol) {
  auto clean_or = GenerateDatasetByName("mammogram", 13, 200);
  ASSERT_TRUE(clean_or.ok());
  const Table& clean = *clean_or;
  const CorruptedTable corrupted = InjectMcar(clean, 0.2, 17);

  GrimpOptions go;
  go.dim = 16;
  go.max_epochs = 40;
  GrimpImputer grimp(go);
  MissForestImputer misf;
  MeanModeImputer mode;

  const RunResult g = RunAlgorithm(clean, corrupted, &grimp);
  const RunResult f = RunAlgorithm(clean, corrupted, &misf);
  const RunResult m = RunAlgorithm(clean, corrupted, &mode);
  ASSERT_TRUE(g.status.ok());
  ASSERT_TRUE(f.status.ok());
  ASSERT_TRUE(m.status.ok());

  // All algorithms scored on the same cells.
  EXPECT_EQ(g.score.categorical_cells, f.score.categorical_cells);
  EXPECT_EQ(g.score.categorical_cells, m.score.categorical_cells);

  // Learned methods beat the mode baseline on clustered data.
  EXPECT_GT(g.score.Accuracy(), m.score.Accuracy());
  EXPECT_GT(f.score.Accuracy(), m.score.Accuracy());
}

TEST(IntegrationTest, ErrorAnalysisShowsRareValueWeakness) {
  // §5 shape: all algorithms err more on rare values than frequent ones.
  auto clean_or = GenerateDatasetByName("thoracic", 29, 250);
  ASSERT_TRUE(clean_or.ok());
  const Table& clean = *clean_or;
  const CorruptedTable corrupted = InjectMcar(clean, 0.3, 31);
  MissForestImputer misf;
  Table imputed;
  const RunResult rr = RunAlgorithm(clean, corrupted, &misf, &imputed);
  ASSERT_TRUE(rr.status.ok());

  // Aggregate over the binary columns: error rate on each column's most
  // frequent value vs its rarest value.
  double frequent_err = 0.0, rare_err = 0.0;
  int counted = 0;
  for (int c = 0; c < clean.num_cols(); ++c) {
    if (!clean.column(c).is_categorical()) continue;
    const auto rows = AnalyzeValueErrors(clean, corrupted, imputed, c);
    if (rows.size() < 2) continue;
    if (rows.front().test_cells == 0 || rows.back().test_cells == 0) continue;
    frequent_err += rows.front().ErrorFraction();
    rare_err += rows.back().ErrorFraction();
    ++counted;
  }
  ASSERT_GT(counted, 3);
  EXPECT_LT(frequent_err / counted, rare_err / counted);
}

TEST(IntegrationTest, MetricsCorrelateWithDifficultyAcrossDatasets) {
  // §5: datasets whose columns are dominated by few frequent values
  // (high F+) are easier for a frequency-based imputer than uniform ones.
  auto easy = GenerateDatasetByName("flare", 7, 250);
  auto hard = GenerateDatasetByName("tictactoe", 7, 250);
  ASSERT_TRUE(easy.ok());
  ASSERT_TRUE(hard.ok());
  MeanModeImputer mode;
  const RunResult easy_run =
      RunAlgorithm(*easy, InjectMcar(*easy, 0.3, 41), &mode);
  const RunResult hard_run =
      RunAlgorithm(*hard, InjectMcar(*hard, 0.3, 41), &mode);
  EXPECT_GT(easy_run.score.Accuracy(), hard_run.score.Accuracy());
  const TableStats easy_stats = ComputeTableStats(*easy);
  const TableStats hard_stats = ComputeTableStats(*hard);
  EXPECT_GT(easy_stats.frequent_frac_avg, hard_stats.frequent_frac_avg);
}

TEST(IntegrationTest, GrimpHandlesTuplesWithMultipleMissingValues) {
  // Fig. 5 scenario: the same masked training vector must produce
  // different imputations for different attributes.
  Schema schema({{"cntr", AttrType::kCategorical},
                 {"city", AttrType::kCategorical},
                 {"lang", AttrType::kCategorical}});
  Table clean(schema);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(clean
                    .AppendRow(i % 2 == 0
                                   ? std::vector<std::string>{"france",
                                                              "paris", "fr"}
                                   : std::vector<std::string>{"italy", "rome",
                                                              "it"})
                    .ok());
  }
  // Blank both cntr and city of some rows: the imputation input vectors
  // for those two tasks are identical.
  CorruptedTable corrupted;
  corrupted.dirty = clean;
  for (int64_t r = 0; r < 10; ++r) {
    corrupted.dirty.mutable_column(0).SetMissing(r);
    corrupted.dirty.mutable_column(1).SetMissing(r);
    corrupted.missing_cells.push_back(CellRef{r, 0});
    corrupted.missing_cells.push_back(CellRef{r, 1});
  }
  GrimpOptions go;
  go.dim = 16;
  go.max_epochs = 40;
  go.seed = 3;
  GrimpImputer grimp(go);
  auto imputed = grimp.Impute(corrupted.dirty);
  ASSERT_TRUE(imputed.ok());
  const ImputationScore score = ScoreImputation(*imputed, corrupted, clean);
  // Both attributes recoverable from lang alone; the per-attribute tasks
  // must fill them with values from their own domains.
  EXPECT_GT(score.Accuracy(), 0.8);
  for (int64_t r = 0; r < 10; ++r) {
    const std::string cntr = imputed->column(0).StringAt(r);
    const std::string city = imputed->column(1).StringAt(r);
    EXPECT_TRUE(cntr == "france" || cntr == "italy") << cntr;
    EXPECT_TRUE(city == "paris" || city == "rome") << city;
  }
}

TEST(IntegrationTest, SuiteRunsOnTinySliceOfEveryDataset) {
  // Smoke: every algorithm of the comparison suite completes on a tiny
  // slice of every dataset at 20% missingness.
  ZooOptions zoo;
  zoo.grimp_epochs = 5;
  zoo.grimp_dim = 8;
  zoo.aimnet_epochs = 5;
  zoo.datawig_epochs = 5;
  zoo.forest_trees = 4;
  for (const std::string name : {"credit", "tictactoe"}) {
    auto clean = GenerateDatasetByName(name, 3, 60);
    ASSERT_TRUE(clean.ok()) << name;
    const CorruptedTable corrupted = InjectMcar(*clean, 0.2, 5);
    const auto suite = MakeComparisonSuite(zoo);
    for (const auto& algo : suite) {
      const RunResult rr = RunAlgorithm(*clean, corrupted, algo.get());
      EXPECT_TRUE(rr.status.ok())
          << name << "/" << algo->name() << ": " << rr.status.ToString();
    }
  }
}

}  // namespace
}  // namespace grimp
