// Hyper-parameter ablations of the proposed method's design choices —
// the knobs DESIGN.md calls out: the CMD maximum moment order (Eq. 5),
// the contrastive temperature tau (Eq. 3), the training Monte-Carlo sample
// count K of the ELBO (Eq. 11, TrainConfig::mcSamples; inference reads the
// head in closed form and draws no samples) and the alignment-loss weights
// gamma1/gamma2. Each row trains the full model at a reduced scale and
// reports the average test R^2.
//
// Not a paper table; it backs the "why these defaults" discussion.

#include <cstdio>
#include <functional>

#include "common/table.hpp"
#include "harness.hpp"

namespace {

using namespace dagt;

double averageR2(const std::vector<core::DesignEval>& evals) {
  double sum = 0.0;
  for (const auto& e : evals) sum += e.r2;
  return sum / static_cast<double>(evals.size());
}

}  // namespace

int main() {
  // Reduced-scale experiment keeps total runtime modest; the *relative*
  // effect of each knob is what matters here.
  const bench::Experiment experiment(0.5f);
  const core::TrainConfig base = [&] {
    core::TrainConfig config = bench::Experiment::defaultTrainConfig();
    config.epochs = 24;
    return config;
  }();

  struct Row {
    std::string knob;
    std::string value;
    std::function<void(core::TrainConfig&)> apply;
  };
  const std::vector<Row> rows = {
      {"baseline", "defaults", [](core::TrainConfig&) {}},
      {"tau", "0.05", [](core::TrainConfig& c) { c.tau = 0.05f; }},
      {"tau", "0.5", [](core::TrainConfig& c) { c.tau = 0.5f; }},
      {"CMD max order", "1",
       [](core::TrainConfig& c) { c.cmdMaxOrder = 1; }},
      {"CMD max order", "3",
       [](core::TrainConfig& c) { c.cmdMaxOrder = 3; }},
      {"train mcSamples K", "1",
       [](core::TrainConfig& c) { c.mcSamples = 1; }},
      {"train mcSamples K", "8",
       [](core::TrainConfig& c) { c.mcSamples = 8; }},
      {"gamma1", "0", [](core::TrainConfig& c) { c.gamma1 = 0.0f; }},
      {"gamma2", "0", [](core::TrainConfig& c) { c.gamma2 = 0.0f; }},
      {"gamma1/gamma2", "x10",
       [](core::TrainConfig& c) {
         c.gamma1 *= 10.0f;
         c.gamma2 *= 10.0f;
       }},
      {"klWeight", "0", [](core::TrainConfig& c) { c.klWeight = 0.0f; }},
      {"klWeight", "1.0", [](core::TrainConfig& c) { c.klWeight = 1.0f; }},
  };

  TextTable table({"knob", "value", "avg test R2", "train s"});
  for (const Row& row : rows) {
    core::TrainConfig config = base;
    row.apply(config);
    const core::Trainer trainer(experiment.trainSet(), config);
    core::TrainStats stats;
    auto model = trainer.train(core::Strategy::kOurs, &stats);
    const auto evals = core::evaluateModel(*model, experiment.testSet());
    table.addRow({row.knob, row.value, TextTable::num(averageR2(evals)),
                  TextTable::num(stats.trainSeconds, 1)});
    std::fprintf(stderr, "%s=%s done\n", row.knob.c_str(),
                 row.value.c_str());
  }

  std::printf("Hyper-parameter ablations of the proposed method "
              "(reduced scale, avg R2 over the 5 test designs)\n%s",
              table.render().c_str());
  return 0;
}
