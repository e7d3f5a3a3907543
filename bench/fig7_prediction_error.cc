// Figure 7: Prediction-error histograms — for every stored key, the
// distance between the position the model predicts and the key's actual
// position.
//
//   7a  Learned Index after bulk load   (mode around 8-32, long right tail)
//   7b  ALEX-GA-ARMI after bulk load    (mostly 0 — direct hits)
//   7c  ALEX-GA-ARMI after inserting 20% more keys (errors stay low)
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/alex.h"
#include "baselines/learned_index.h"
#include "datasets/dataset.h"
#include "util/histogram.h"
#include "workloads/runner.h"

namespace {
using namespace alex;         // NOLINT
using namespace alex::bench;  // NOLINT

void PrintHistogram(const char* title, const util::Log2Histogram& hist) {
  std::printf("\n%s  (n=%llu, direct hits=%.1f%%)\n\n", title,
              static_cast<unsigned long long>(hist.total()),
              100.0 * hist.FractionZero());
  std::printf("| error bucket | count | share |\n|---|---|---|\n");
  const int max_bucket = hist.MaxBucket();
  for (int b = 0; b <= max_bucket; ++b) {
    if (hist.count(b) == 0) continue;
    std::printf("| %llu%s | %llu | %.2f%% |\n",
                static_cast<unsigned long long>(
                    util::Log2Histogram::BucketLo(b)),
                b <= 1 ? "" : "+",
                static_cast<unsigned long long>(hist.count(b)),
                100.0 * static_cast<double>(hist.count(b)) /
                    static_cast<double>(hist.total()));
  }
}

util::Log2Histogram AlexErrors(const core::Alex<double, int64_t>& index) {
  util::Log2Histogram hist;
  index.ForEachLeaf([&](const core::DataNode<double, int64_t>& leaf) {
    const auto& s = leaf.storage();
    for (size_t i = s.FirstOccupied(); i < s.capacity();
         i = s.NextOccupied(i)) {
      const size_t predicted = leaf.PredictSlot(s.key_at(i));
      hist.Record(predicted > i ? predicted - i : i - predicted);
    }
  });
  return hist;
}

}  // namespace

int main(int argc, char** argv) {
  alex::bench::ParseBenchArgs(argc, argv);
  const size_t init = ScaledKeys(100000);
  const size_t extra = ScaledKeys(20000);
  const auto keys =
      data::GenerateKeys(data::DatasetId::kLongitudes, init + extra);
  auto wdata = workload::SplitWorkloadData(keys, init);
  std::vector<int64_t> payloads(wdata.init_keys.size(), 0);

  std::printf("Figure 7: Prediction error of the models (longitudes, %zu "
              "keys + %zu inserts)\n", init, extra);

  // 7a: Learned Index.
  {
    baseline::LearnedIndex<double, int64_t> li(
        std::max<size_t>(16, init / 2048));
    li.BulkLoad(wdata.init_keys.data(), payloads.data(),
                wdata.init_keys.size());
    util::Log2Histogram hist;
    for (const double k : wdata.init_keys) {
      hist.Record(li.PredictionError(k));
    }
    PrintHistogram("Figure 7a: Learned Index (after init)", hist);
  }

  // 7b / 7c: ALEX-GA-ARMI.
  core::Alex<double, int64_t> alex_index(GaArmiConfig(true));
  alex_index.BulkLoad(wdata.init_keys.data(), payloads.data(),
                      wdata.init_keys.size());
  PrintHistogram("Figure 7b: ALEX (after init)", AlexErrors(alex_index));

  for (const double k : wdata.insert_keys) {
    alex_index.Insert(k, 0);
  }
  PrintHistogram("Figure 7c: ALEX (after inserts)", AlexErrors(alex_index));
  return 0;
}
