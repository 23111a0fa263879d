// Figure 9c: number of servers Algorithm 1 needs to pack 5000 gaming
// requests (uniform over a 10-game study pool) so every game meets QoS.
//
// Two protocols are reported, mean over five independent study draws:
//
//  * paper protocol — each methodology packs using only the *actually
//    feasible* colocations it identified (its true positives; the paper
//    argues packing on false positives "is not meaningful" since they
//    violate QoS). This measures recall: a model that cries "feasible"
//    at everything matches the oracle here, because its false positives
//    are filtered away for free.
//
//  * deployed protocol — the methodology packs on its own judgements
//    (false positives included, since a real scheduler has no ground
//    truth to filter with), and we report both the servers used and the
//    fraction of the 5000 sessions whose realized FPS actually violates
//    QoS. This is the precision side of the trade-off the paper
//    emphasizes in §5.1.
//
// Paper shape: GAugur(CM) fewest servers — 20-40% fewer than baselines,
// up to 60% fewer than no colocation — with almost no violations.

#include <iostream>
#include <memory>

#include "bench/bench_world.h"
#include "bench/trained_stack.h"
#include "common/table.h"
#include "sched/enumeration.h"
#include "sched/methodology.h"
#include "sched/packing.h"
#include "sched/study.h"

using namespace gaugur;

namespace {

struct Tally {
  double tp_servers_q60 = 0.0;
  double tp_servers_q50 = 0.0;
  double deployed_servers_q60 = 0.0;
  double deployed_violations_q60 = 0.0;  // sessions below QoS
};

}  // namespace

int main() {
  const int total_requests = 5000;
  constexpr double kQos = 60.0;
  const auto& world = bench::BenchWorld::Get();
  const auto& stack = bench::TrainedStack::Get();

  std::vector<std::unique_ptr<sched::Methodology>> methods;
  methods.push_back(sched::MakeGAugurCmMethod(stack.gaugur));
  methods.push_back(sched::MakeGAugurRmMethod(stack.gaugur));
  methods.push_back(sched::MakeSigmoidMethod(world.features(), stack.sigmoid));
  methods.push_back(sched::MakeSmiteMethod(world.features(), stack.smite));
  methods.push_back(sched::MakeVbpMethod(stack.vbp));

  const std::vector<std::uint64_t> pool_seeds = {5, 6, 7, 8, 9};
  std::vector<Tally> tally(methods.size() + 1);  // +1 = oracle

  for (std::uint64_t seed : pool_seeds) {
    const auto setup = sched::SelectStudyGames(world.lab(), 10, kQos, seed);
    const auto colocations = sched::EnumerateColocations(setup.pool, 4);
    const auto requests = sched::GenerateRequestCounts(
        world.catalog().size(), setup.game_ids, total_requests, 17 + seed);

    for (double qos : {60.0, 50.0}) {
      std::vector<char> truly(colocations.size());
      for (std::size_t i = 0; i < colocations.size(); ++i) {
        truly[i] = world.lab().TrulyFeasible(colocations[i], qos) ? 1 : 0;
      }

      for (std::size_t mi = 0; mi <= methods.size(); ++mi) {
        const bool oracle = mi == methods.size();
        // One batched judgement of every enumerated colocation per
        // (draw, QoS, methodology); both protocols read from it.
        std::vector<char> verdicts;
        if (!oracle) verdicts = methods[mi]->FeasibleBatch(qos, colocations);
        // Paper protocol: true positives (singletons always known).
        std::vector<core::Colocation> tp_set;
        for (std::size_t i = 0; i < colocations.size(); ++i) {
          if (!truly[i]) continue;
          if (oracle || colocations[i].size() == 1 || verdicts[i] != 0) {
            tp_set.push_back(colocations[i]);
          }
        }
        const double tp_servers = static_cast<double>(
            sched::PackRequests(tp_set, requests).servers_used);
        if (qos == 60.0) {
          tally[mi].tp_servers_q60 += tp_servers;
        } else {
          tally[mi].tp_servers_q50 += tp_servers;
        }

        // Deployed protocol (QoS 60 only): the method's own judgements.
        if (qos != 60.0) continue;
        std::vector<core::Colocation> own_set;
        for (std::size_t i = 0; i < colocations.size(); ++i) {
          const bool believed =
              oracle ? truly[i] != 0
                     : (colocations[i].size() == 1
                            ? world.features()
                                      .Profile(colocations[i][0].game_id)
                                      .SoloFps(
                                          colocations[i][0].resolution) >=
                                  qos
                            : verdicts[i] != 0);
          if (believed) own_set.push_back(colocations[i]);
        }
        const auto packed = sched::PackRequests(own_set, requests);
        tally[mi].deployed_servers_q60 +=
            static_cast<double>(packed.servers_used);
        double violations = 0.0;
        for (const auto& server : packed.assignments) {
          for (double fps : world.lab().TrueFps(server)) {
            if (fps < qos) violations += 1.0;
          }
        }
        tally[mi].deployed_violations_q60 += violations;
      }
    }
  }

  const double draws = static_cast<double>(pool_seeds.size());
  common::Table table({"methodology", "servers QoS=60 (TP)",
                       "servers QoS=50 (TP)", "servers QoS=60 (deployed)",
                       "violations % (deployed)"},
                      1);
  auto add_row = [&](const std::string& name, const Tally& t) {
    table.AddRow({name,
                  static_cast<long long>(t.tp_servers_q60 / draws + 0.5),
                  static_cast<long long>(t.tp_servers_q50 / draws + 0.5),
                  static_cast<long long>(
                      t.deployed_servers_q60 / draws + 0.5),
                  100.0 * t.deployed_violations_q60 /
                      (draws * total_requests)});
  };
  for (std::size_t mi = 0; mi < methods.size(); ++mi) {
    add_row(methods[mi]->Name(), tally[mi]);
  }
  add_row("Oracle (all feasible)", tally.back());
  table.AddRow({std::string("No colocation"),
                static_cast<long long>(total_requests),
                static_cast<long long>(total_requests),
                static_cast<long long>(total_requests), 0.0});
  table.Print(std::cout,
              "Figure 9c: servers used to pack 5000 requests "
              "(Algorithm 1; mean over 5 study draws)");
  bench::WriteResultCsv("fig9c_server_packing", table);

  std::printf(
      "\nPaper: GAugur(CM) uses the fewest servers (20-40%% fewer than "
      "baselines, up to 60%% fewer than no colocation).\nThe deployed "
      "columns expose the precision side: a sloppy high-recall model "
      "matches the oracle under the TP protocol\nbut violates QoS for "
      "many sessions once its false positives are actually scheduled.\n");
  return 0;
}
