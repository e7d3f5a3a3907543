// Figure 12 (Appendix B): leaf-size distribution after initialization,
// static vs adaptive RMI on longitudes. Static RMI produces both wasted
// (near-empty) leaves and oversized leaves; adaptive RMI bounds every leaf
// at max_data_node_keys and merges tiny partitions.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "core/alex.h"
#include "datasets/dataset.h"

namespace {
using namespace alex;         // NOLINT
using namespace alex::bench;  // NOLINT

struct LeafStats {
  std::vector<size_t> sizes;

  void Collect(const core::Alex<double, int64_t>& index) {
    index.ForEachLeaf([&](const core::DataNode<double, int64_t>& leaf) {
      sizes.push_back(leaf.storage().num_keys());
    });
    std::sort(sizes.begin(), sizes.end());
  }

  size_t Percentile(double q) const {
    if (sizes.empty()) return 0;
    return sizes[std::min(sizes.size() - 1,
                          static_cast<size_t>(
                              q * static_cast<double>(sizes.size())))];
  }

  size_t CountBelow(size_t bound) const {
    return static_cast<size_t>(
        std::lower_bound(sizes.begin(), sizes.end(), bound) -
        sizes.begin());
  }
};

}  // namespace

int main(int argc, char** argv) {
  alex::bench::ParseBenchArgs(argc, argv);
  const size_t n = ScaledKeys(200000);
  const auto keys = data::GenerateKeys(data::DatasetId::kLongitudes, n);
  std::vector<double> sorted(keys);
  std::sort(sorted.begin(), sorted.end());
  std::vector<int64_t> payloads(n, 0);

  core::Config srmi = GaSrmiConfig();
  core::Config armi = GaArmiConfig();

  core::Alex<double, int64_t> srmi_index(srmi);
  srmi_index.BulkLoad(sorted.data(), payloads.data(), n);
  core::Alex<double, int64_t> armi_index(armi);
  armi_index.BulkLoad(sorted.data(), payloads.data(), n);

  LeafStats s_srmi, s_armi;
  s_srmi.Collect(srmi_index);
  s_armi.Collect(armi_index);

  std::printf("Figure 12: Leaf sizes, static vs adaptive RMI (longitudes, "
              "%zu keys, max bound %zu)\n\n", n, armi.max_data_node_keys);
  std::printf("| metric | SRMI | ARMI |\n|---|---|---|\n");
  std::printf("| leaves | %zu | %zu |\n", s_srmi.sizes.size(),
              s_armi.sizes.size());
  std::printf("| min keys | %zu | %zu |\n", s_srmi.sizes.front(),
              s_armi.sizes.front());
  std::printf("| p10 keys | %zu | %zu |\n", s_srmi.Percentile(0.10),
              s_armi.Percentile(0.10));
  std::printf("| median keys | %zu | %zu |\n", s_srmi.Percentile(0.5),
              s_armi.Percentile(0.5));
  std::printf("| p90 keys | %zu | %zu |\n", s_srmi.Percentile(0.90),
              s_armi.Percentile(0.90));
  std::printf("| max keys | %zu | %zu |\n", s_srmi.sizes.back(),
              s_armi.sizes.back());
  std::printf("| wasted leaves (<64 keys) | %zu | %zu |\n",
              s_srmi.CountBelow(64), s_armi.CountBelow(64));
  std::printf("| oversized leaves (>max bound) | %zu | %zu |\n",
              s_srmi.sizes.size() - s_srmi.CountBelow(
                  armi.max_data_node_keys + 1),
              s_armi.sizes.size() - s_armi.CountBelow(
                  armi.max_data_node_keys + 1));
  std::printf("\nExpected shape: ARMI leaves bounded at the max (no "
              "oversized leaves), far fewer wasted leaves.\n");
  return 0;
}
