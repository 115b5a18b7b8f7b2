// Reproduces Figure 10: GRIMP ablation. GRIMP-MT (full system) vs GNN-MC
// (GNN kept, multi-task learning replaced by one classifier over the full
// table domain) vs EmbDI-MC (both GNN and MTL disabled). The paper's
// claim: each module contributes, so GRIMP-MT >= GNN-MC >= EmbDI-MC.

#include <iostream>

#include "bench_common.h"
#include "eval/report.h"

int main(int argc, char** argv) {
  using namespace grimp;
  bench::BenchConfig config = bench::ParseBenchArgs(
      argc, argv, {"adult", "contraceptive", "flare", "tictactoe"});
  bench::PrintRunHeader(
      "Figure 10: ablation GRIMP-MT vs GNN-MC vs EmbDI-MC", config);

  const auto results = bench::RunComparisonGrid(config, [&] {
    std::vector<std::unique_ptr<ImputationAlgorithm>> algos;
    // Full system with EmbDI features (paper's GRIMP-MT ablation anchor).
    {
      GrimpOptions go;
      go.features = FeatureInitKind::kEmbdi;
      go.dim = config.zoo.grimp_dim;
      go.max_epochs = config.zoo.grimp_epochs;
      go.seed = config.zoo.seed;
      algos.push_back(std::make_unique<GrimpImputer>(go));  // GRIMP-E
    }
    algos.push_back(
        MakeGrimpAblation(/*use_gnn=*/true, /*multi_task=*/false,
                          config.zoo));  // GNN-MC
    algos.push_back(
        MakeGrimpAblation(/*use_gnn=*/false, /*multi_task=*/false,
                          config.zoo));  // EmbDI-MC
    return algos;
  });

  for (double rate : config.error_rates) {
    std::cout << "\n--- accuracy @ " << rate * 100 << "% missing ---\n";
    TextTable table({"dataset", "GRIMP-MT", "GNN-MC", "EmbDI-MC"});
    for (const std::string& dataset : config.datasets) {
      std::vector<std::string> row{dataset};
      for (const std::string algo : {"GRIMP-E", "GNN-MC", "EmbDI-MC"}) {
        for (const auto& cell : results) {
          if (cell.dataset == dataset && cell.error_rate == rate &&
              cell.algorithm == algo) {
            row.push_back(TextTable::Num(cell.accuracy, 3));
            break;
          }
        }
      }
      table.AddRow(std::move(row));
    }
    if (config.csv) {
      table.PrintCsv(std::cout);
    } else {
      table.Print(std::cout);
    }
  }
  std::cout << "\n--- averages over datasets ---\n";
  TextTable avg({"rate", "GRIMP-MT", "GNN-MC", "EmbDI-MC"});
  for (double rate : config.error_rates) {
    avg.AddRow({TextTable::Num(rate, 2),
                TextTable::Num(bench::AverageAccuracy(results, "GRIMP-E",
                                                      rate), 3),
                TextTable::Num(bench::AverageAccuracy(results, "GNN-MC",
                                                      rate), 3),
                TextTable::Num(bench::AverageAccuracy(results, "EmbDI-MC",
                                                      rate), 3)});
  }
  avg.Print(std::cout);
  std::cout << "\nExpected shape (paper Fig. 10): disabling multi-task "
               "learning hurts, disabling the GNN as well hurts more.\n";
  return 0;
}
