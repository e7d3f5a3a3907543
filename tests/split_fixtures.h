// Fixtures shared by the leaf-split suites: a bulk load whose leaves own
// several root slots, the root model that bulk load trains, and the keys
// that turn one of its leaves into a victim whose keys all route to one
// slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/alex.h"
#include "models/linear_model.h"

namespace alex::test {

/// 8192 keys 1000 apart under a 256-key bound: the bulk-loaded root gets
/// 64 slots that expect 128 keys each, and adjacent slot pairs merge into
/// full leaves that own two slots.
inline constexpr size_t kSplitKeys = 8192;
inline constexpr int64_t kSplitStride = 1000;

inline core::Config SplitConfig(core::NodeLayout layout) {
  core::Config config;
  config.layout = layout;
  config.max_data_node_keys = 256;
  config.split_fanout = 4;
  return config;
}

inline std::vector<int64_t> SplitKeys() {
  std::vector<int64_t> keys(kSplitKeys);
  for (size_t i = 0; i < kSplitKeys; ++i) {
    keys[i] = static_cast<int64_t>(i) * kSplitStride;
  }
  return keys;
}

/// The bulk-loaded root's model, trained the way Alex::BuildAdaptive
/// trains it.
struct RootModel {
  size_t slots;
  model::LinearModel model;

  RootModel(const std::vector<int64_t>& keys, size_t max_keys)
      : slots((core::Alex<int64_t, int64_t>::kRootPartitionsPerMaxLeaf *
                   keys.size() +
               max_keys - 1) /
              max_keys),
        model(model::TrainCdfModel(keys.data(), keys.size(), slots)) {}

  size_t SlotOf(int64_t key) const {
    return model.Predict(static_cast<double>(key), slots);
  }
};

/// A bulk-loaded leaf whose keys span exactly two root slots: its first
/// key, and its keys that route to the second slot. Erasing those leaves
/// a victim that owns two slots with every key in one.
struct TwoSlotLeaf {
  int64_t first = -1;
  std::vector<int64_t> second_slot;
};

inline TwoSlotLeaf FindTwoSlotLeaf(const core::Alex<int64_t, int64_t>& index,
                                   const RootModel& root) {
  TwoSlotLeaf out;
  index.ForEachLeaf([&](const auto& leaf) {
    const auto& s = leaf.storage();
    if (out.first >= 0 || s.empty()) return;
    const int64_t lo = s.key_at(s.FirstOccupied());
    if (root.SlotOf(lo) + 1 != root.SlotOf(s.key_at(s.LastOccupied()))) {
      return;
    }
    out.first = lo;
    s.VisitSlots(0, s.capacity(), [&](const int64_t& key, const int64_t&) {
      if (root.SlotOf(key) != root.SlotOf(lo)) out.second_slot.push_back(key);
      return true;
    });
  });
  return out;
}

}  // namespace alex::test
