// Ablation: model-based insertion on vs off (§3.2, Fig. 7 drilldown).
//
// The paper claims model-based insertion is what gives ALEX its edge over
// the Learned Index: placing keys where the model predicts drives the
// prediction error toward zero. This ablation builds the same
// ALEX-GA-ARMI index twice — once with model-based placement, once with
// rank-based (uniform) placement as the original Learned Index bulk load
// does — and compares prediction error and read-only throughput.
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "core/alex.h"
#include "datasets/dataset.h"
#include "util/histogram.h"
#include "workloads/adapters.h"
#include "workloads/runner.h"

namespace {
using namespace alex;         // NOLINT
using namespace alex::bench;  // NOLINT
using P8 = workload::Payload<8>;

struct AblationResult {
  double direct_hit_pct = 0.0;
  double mean_error = 0.0;
  double mops = 0.0;
};

AblationResult RunOnce(data::DatasetId dataset, bool model_based) {
  const size_t n = ScaledKeys(200000);
  const auto keys = data::GenerateKeys(dataset, n);
  const auto wdata = workload::SplitWorkloadData(keys, n);

  core::Config config = GaArmiConfig();
  config.model_based_placement = model_based;
  workload::AlexAdapter<double, P8> index(config);
  workload::PrepareIndex(index, wdata, P8{});

  util::Log2Histogram hist;
  index.index().ForEachLeaf([&](const core::DataNode<double, P8>& leaf) {
    const auto& s = leaf.storage();
    for (size_t i = s.FirstOccupied(); i < s.capacity();
         i = s.NextOccupied(i)) {
      const size_t predicted = leaf.PredictSlot(s.key_at(i));
      hist.Record(predicted > i ? predicted - i : i - predicted);
    }
  });

  workload::WorkloadSpec spec;
  spec.kind = workload::WorkloadKind::kReadOnly;
  spec.seconds = EnvSeconds();
  const auto r = workload::RunWorkload(index, wdata, spec);

  AblationResult result;
  result.direct_hit_pct = 100.0 * hist.FractionZero();
  result.mean_error = hist.ApproxMean();
  result.mops = r.Throughput();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  alex::bench::ParseBenchArgs(argc, argv);
  std::printf("Ablation: model-based insertion (read-only workload, "
              "ALEX-GA-ARMI)\n\n");
  std::printf("| dataset | placement | direct hits | mean error | Mops/s "
              "|\n|---|---|---|---|---|\n");
  for (const auto dataset : data::kAllDatasets) {
    for (const bool model_based : {true, false}) {
      const auto r = RunOnce(dataset, model_based);
      std::printf("| %s | %s | %.1f%% | %.2f | %s |\n",
                  data::DatasetName(dataset),
                  model_based ? "model-based" : "rank-based",
                  r.direct_hit_pct, r.mean_error, Mops(r.mops).c_str());
    }
  }
  std::printf("\nExpected shape: model-based placement has far more direct "
              "hits, lower mean error, and higher throughput.\n");
  return 0;
}
