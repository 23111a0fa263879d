// Figures 9a/9b: feasibility judgement quality over all 385 colocations
// (sizes 1-4) of 10 study games, at QoS 60 FPS: TP/FP/FN/TN counts (9a)
// and accuracy / precision / recall (9b) for GAugur(CM), GAugur(RM),
// Sigmoid, SMiTe and VBP.
//
// Paper shape: GAugur(CM) ~94% precision / ~88% recall, far ahead of
// Sigmoid, SMiTe and VBP, whose low precision (QoS-violating false
// positives) is the dangerous failure mode for cloud gaming.

#include <iostream>
#include <memory>

#include "bench/bench_world.h"
#include "bench/trained_stack.h"
#include "common/table.h"
#include "ml/metrics.h"
#include "sched/enumeration.h"
#include "sched/methodology.h"
#include "sched/study.h"

using namespace gaugur;

int main() {
  constexpr double kQos = 60.0;
  const auto& world = bench::BenchWorld::Get();
  const auto& stack = bench::TrainedStack::Get();

  const auto setup = sched::SelectStudyGames(world.lab(), 10, kQos, 5);
  const auto colocations = sched::EnumerateColocations(setup.pool, 4);
  std::printf("study pool: %zu games, %zu candidate colocations\n",
              setup.game_ids.size(), colocations.size());

  std::vector<int> truth;
  truth.reserve(colocations.size());
  std::size_t truly_feasible = 0;
  for (const auto& c : colocations) {
    const bool feasible = world.lab().TrulyFeasible(c, kQos);
    truth.push_back(feasible ? 1 : 0);
    truly_feasible += feasible ? 1 : 0;
  }
  std::printf("ground truth: %zu of %zu colocations are feasible\n\n",
              truly_feasible, colocations.size());

  std::vector<std::unique_ptr<sched::Methodology>> methods;
  methods.push_back(sched::MakeGAugurCmMethod(stack.gaugur));
  methods.push_back(sched::MakeGAugurRmMethod(stack.gaugur));
  methods.push_back(sched::MakeSigmoidMethod(world.features(), stack.sigmoid));
  methods.push_back(sched::MakeSmiteMethod(world.features(), stack.smite));
  methods.push_back(sched::MakeVbpMethod(stack.vbp));

  common::Table counts({"methodology", "TP", "FP", "FN", "TN"}, 0);
  common::Table metrics({"methodology", "accuracy", "precision", "recall"},
                        3);
  for (const auto& method : methods) {
    // All 385 candidates judged in one batched call.
    const std::vector<char> verdicts =
        method->FeasibleBatch(kQos, colocations);
    std::vector<int> predicted(verdicts.begin(), verdicts.end());
    const auto cm = ml::ComputeConfusion(predicted, truth);
    counts.AddRow({method->Name(), static_cast<long long>(cm.tp),
                   static_cast<long long>(cm.fp),
                   static_cast<long long>(cm.fn),
                   static_cast<long long>(cm.tn)});
    metrics.AddRow(
        {method->Name(), cm.Accuracy(), cm.Precision(), cm.Recall()});
  }
  counts.Print(std::cout, "Figure 9a: TP/FP/FN/TN per methodology");
  metrics.Print(std::cout,
                "Figure 9b: accuracy, precision and recall per methodology");
  bench::WriteResultCsv("fig9a_confusion", counts);
  bench::WriteResultCsv("fig9b_metrics", metrics);

  std::printf(
      "\nPaper: GAugur(CM) precision 94%% / recall 88%%; the baselines "
      "mistake many infeasible colocations for feasible ones.\n");
  return 0;
}
