// Reproduces Table 2: attention vs linear task heads, accuracy and
// training time averaged over datasets at 5/20/50% missingness. Paper
// result: attention slightly more accurate at every rate; linear roughly
// an order of magnitude faster.

#include <iostream>

#include "bench_common.h"
#include "eval/report.h"

int main(int argc, char** argv) {
  using namespace grimp;
  bench::BenchConfig config = bench::ParseBenchArgs(
      argc, argv, {"adult", "contraceptive", "flare", "tictactoe"});
  bench::PrintRunHeader("Table 2: attention vs linear task heads", config);

  const auto results = bench::RunComparisonGrid(config, [&] {
    std::vector<std::unique_ptr<ImputationAlgorithm>> algos;
    for (TaskKind kind : {TaskKind::kAttention, TaskKind::kLinear}) {
      GrimpOptions go;
      go.features = FeatureInitKind::kNgram;
      go.task_kind = kind;
      go.dim = config.zoo.grimp_dim;
      go.max_epochs = config.zoo.grimp_epochs;
      go.seed = config.zoo.seed;
      algos.push_back(std::make_unique<GrimpImputer>(go));
    }
    return algos;
  });

  TextTable table({"Error %", "Strategy", "Accuracy", "Time (s)"});
  for (double rate : config.error_rates) {
    for (const std::string algo : {"GRIMP-FT", "GRIMP-FT-Lin"}) {
      double acc_sum = 0, time_sum = 0;
      int n = 0;
      for (const auto& cell : results) {
        if (cell.algorithm == algo && cell.error_rate == rate && cell.ok) {
          acc_sum += cell.accuracy;
          time_sum += cell.seconds;
          ++n;
        }
      }
      table.AddRow({TextTable::Num(rate * 100, 0),
                    algo == "GRIMP-FT" ? "Attention" : "Linear",
                    n ? TextTable::Num(acc_sum / n, 3) : "-",
                    n ? TextTable::Num(time_sum / n, 2) : "-"});
    }
  }
  if (config.csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  std::cout << "\nPaper Table 2: Attention 0.707/0.679/0.637 vs Linear "
               "0.700/0.671/0.618 accuracy at 5/20/50%; Linear ~10x "
               "faster.\n";
  return 0;
}
