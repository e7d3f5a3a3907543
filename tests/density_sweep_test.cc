// Parameterized property sweeps over the space-time knobs of §3.3/§4:
// gapped-array density bounds, PMA density-bound pairs, and the derived
// invariants that must hold at every setting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "containers/gapped_array.h"
#include "containers/pma.h"
#include "core/alex.h"
#include "util/random.h"

namespace alex {
namespace {

// ---- gapped-array density sweep ----

class GaDensitySweep : public ::testing::TestWithParam<double> {};

TEST_P(GaDensitySweep, ExpansionKeepsDensityBelowBound) {
  const double d = GetParam();
  core::Config config;
  config.density_upper = d;
  config.density_lower = 0.0;
  config.allow_splitting = false;
  core::Alex<int64_t, int64_t> index(config);
  util::Xoshiro256 rng(9);
  for (int i = 0; i < 20000; ++i) {
    index.Insert(static_cast<int64_t>(rng.NextUint64(10000000)), i);
  }
  // Every leaf respects the density bound (with one key of slack at the
  // expansion trigger).
  index.ForEachLeaf([&](const core::DataNode<int64_t, int64_t>& leaf) {
    EXPECT_LE(static_cast<double>(leaf.storage().num_keys()),
              d * static_cast<double>(leaf.storage().capacity()) + 1.0)
        << "d=" << d;
  });
  EXPECT_TRUE(index.CheckInvariants());
}

TEST_P(GaDensitySweep, ExpansionFactorMatchesInverseSquare) {
  const double d = GetParam();
  core::Config config;
  config.density_upper = d;
  EXPECT_NEAR(config.ExpansionFactor(), 1.0 / (d * d), 1e-12);
  // SpaceBudgetToDensity inverts it.
  EXPECT_NEAR(core::SpaceBudgetToDensity(config.ExpansionFactor()), d,
              1e-12);
}

TEST_P(GaDensitySweep, DataSpacePerKeyTracksExpansionFactor) {
  const double d = GetParam();
  core::Config config;
  config.density_upper = d;
  config.density_lower = 0.0;
  config.allow_splitting = false;
  std::vector<int64_t> keys(50000), payloads(50000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<int64_t>(i) * 3;
    payloads[i] = 0;
  }
  core::Alex<int64_t, int64_t> index(config);
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  // Bulk load allocates ~c slots per key (§3.3.1); each slot is a 16-byte
  // entry plus 1/8 byte of bitmap.
  const double slots_per_key =
      static_cast<double>(index.DataSizeBytes()) /
      (16.125 * static_cast<double>(keys.size()));
  EXPECT_NEAR(slots_per_key, config.ExpansionFactor(),
              0.25 * config.ExpansionFactor())
      << "d=" << d;
}

INSTANTIATE_TEST_SUITE_P(Densities, GaDensitySweep,
                         ::testing::Values(0.5, 0.6, 0.7, 0.8, 0.9),
                         [](const ::testing::TestParamInfo<double>& info) {
                           char buf[16];
                           std::snprintf(buf, sizeof(buf), "d%d",
                                         static_cast<int>(info.param * 100));
                           return std::string(buf);
                         });

// ---- PMA bounds sweep ----

struct PmaBoundsParam {
  double root_max;
  double leaf_max;
};

class PmaBoundsSweep : public ::testing::TestWithParam<PmaBoundsParam> {};

TEST_P(PmaBoundsSweep, FillsExactlyToRootBound) {
  container::PmaDensityBounds bounds;
  bounds.root_max = GetParam().root_max;
  bounds.leaf_max = GetParam().leaf_max;
  container::Pma<int64_t, int> pma(bounds);
  pma.Reset(512);
  size_t inserted = 0;
  for (int64_t k = 0;; ++k) {
    const auto st = pma.Insert(k, 0, 0);
    if (st != container::Pma<int64_t, int>::InsertStatus::kOk) break;
    ++inserted;
  }
  EXPECT_EQ(inserted,
            static_cast<size_t>(bounds.root_max * 512.0));
  EXPECT_TRUE(pma.CheckInvariants());
}

TEST_P(PmaBoundsSweep, RandomInsertEraseKeepsInvariants) {
  container::PmaDensityBounds bounds;
  bounds.root_max = GetParam().root_max;
  bounds.leaf_max = GetParam().leaf_max;
  container::Pma<int64_t, int> pma(bounds);
  pma.Reset(2048);
  util::Xoshiro256 rng(33);
  const size_t budget =
      static_cast<size_t>(bounds.root_max * 2048.0) - 1;
  size_t live = 0;
  for (int iter = 0; iter < 5000; ++iter) {
    const int64_t key = static_cast<int64_t>(rng.NextUint64(100000));
    if (rng.NextUint64(3) < 2 && live < budget) {
      if (pma.Insert(key, iter, rng.NextUint64(2048)) ==
          container::Pma<int64_t, int>::InsertStatus::kOk) {
        ++live;
      }
    } else {
      if (pma.Erase(key, rng.NextUint64(2048))) --live;
    }
  }
  EXPECT_EQ(pma.num_keys(), live);
  EXPECT_TRUE(pma.CheckInvariants());
}

TEST_P(PmaBoundsSweep, InterpolatedLevelsStayWithinEndpoints) {
  container::PmaDensityBounds bounds;
  bounds.root_max = GetParam().root_max;
  bounds.leaf_max = GetParam().leaf_max;
  container::Pma<int64_t, int> pma(bounds);
  pma.Reset(1 << 14);
  for (size_t level = 0; level < 12; ++level) {
    const double tau = pma.MaxDensityAtLevel(level);
    EXPECT_GE(tau, std::min(bounds.root_max, bounds.leaf_max) - 1e-12);
    EXPECT_LE(tau, std::max(bounds.root_max, bounds.leaf_max) + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Bounds, PmaBoundsSweep,
    ::testing::Values(PmaBoundsParam{0.5, 1.0}, PmaBoundsParam{0.6, 0.9},
                      PmaBoundsParam{0.7, 0.92}, PmaBoundsParam{0.8, 0.95}),
    [](const ::testing::TestParamInfo<PmaBoundsParam>& info) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "root%d_leaf%d",
                    static_cast<int>(info.param.root_max * 100),
                    static_cast<int>(info.param.leaf_max * 100));
      return std::string(buf);
    });

// ---- split fanout sweep (§3.4.2's tunable) ----

class SplitFanoutSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(SplitFanoutSweep, ColdStartCorrectAtEveryFanout) {
  core::Config config;
  config.max_data_node_keys = 128;
  config.split_fanout = GetParam();
  core::Alex<int64_t, int64_t> index(config);
  util::Xoshiro256 rng(44);
  std::vector<int64_t> inserted;
  for (int i = 0; i < 8000; ++i) {
    const int64_t key = static_cast<int64_t>(rng.NextUint64(10000000));
    if (index.Insert(key, i)) inserted.push_back(key);
  }
  EXPECT_EQ(index.size(), inserted.size());
  EXPECT_TRUE(index.CheckInvariants());
  for (size_t i = 0; i < inserted.size(); i += 53) {
    ASSERT_NE(index.Find(inserted[i]), nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, SplitFanoutSweep,
                         ::testing::Values(2, 4, 8, 16, 64),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           char buf[16];
                           std::snprintf(buf, sizeof(buf), "f%zu",
                                         info.param);
                           return std::string(buf);
                         });

}  // namespace
}  // namespace alex
