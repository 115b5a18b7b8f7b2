// Ablation over pre-trained feature initializers (§3.4 / §4.2): GRIMP with
// random features vs hashed-n-gram ("FastText") vs EmbDI local embeddings.
// Paper: EmbDI best on average, neither pretrained variant dominates, both
// slightly beat random initialization.

#include <iostream>

#include "bench_common.h"
#include "eval/report.h"

int main(int argc, char** argv) {
  using namespace grimp;
  bench::BenchConfig config = bench::ParseBenchArgs(
      argc, argv, {"adult", "contraceptive", "flare", "mammogram"});
  config.error_rates = {0.2};
  bench::PrintRunHeader(
      "Ablation: feature initializers (random vs n-gram vs EmbDI)", config);

  const auto results = bench::RunComparisonGrid(config, [&] {
    std::vector<std::unique_ptr<ImputationAlgorithm>> algos;
    algos.push_back(MakeGrimp(FeatureInitKind::kRandom, config.zoo));
    algos.push_back(MakeGrimp(FeatureInitKind::kNgram, config.zoo));
    algos.push_back(MakeGrimp(FeatureInitKind::kEmbdi, config.zoo));
    return algos;
  });

  TextTable table({"dataset", "GRIMP-R (random)", "GRIMP-FT (ngram)",
                   "GRIMP-E (EmbDI)"});
  for (const std::string& dataset : config.datasets) {
    std::vector<std::string> row{dataset};
    for (const std::string algo : {"GRIMP-R", "GRIMP-FT", "GRIMP-E"}) {
      for (const auto& cell : results) {
        if (cell.dataset == dataset && cell.algorithm == algo) {
          row.push_back(TextTable::Num(cell.accuracy, 3));
          break;
        }
      }
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  const double rate = config.error_rates[0];
  std::cout << "\naverages: random "
            << TextTable::Num(bench::AverageAccuracy(results, "GRIMP-R",
                                                     rate), 3)
            << ", ngram "
            << TextTable::Num(bench::AverageAccuracy(results, "GRIMP-FT",
                                                     rate), 3)
            << ", embdi "
            << TextTable::Num(bench::AverageAccuracy(results, "GRIMP-E",
                                                     rate), 3)
            << "\nExpected shape: pretrained features >= random; no single "
               "pretrained variant dominates everywhere.\n";
  return 0;
}
