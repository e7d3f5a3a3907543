// Configuration for the ALEX index. The two orthogonal design dimensions of
// the paper — node layout (§3.3) and RMI mode (§3.4) — give the four
// evaluated variants:
//
//   ALEX-GA-SRMI   best for read-only workloads       (§5.2.1)
//   ALEX-GA-ARMI   best for most read-write workloads (§5.2.2)
//   ALEX-PMA-SRMI  low median insert latency           (§5.3)
//   ALEX-PMA-ARMI  best under adversarial inserts      (§5.2.5)
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace alex::core {

/// Leaf data-node layout (paper §3.3).
enum class NodeLayout {
  kGappedArray,       ///< optimized for search (§3.3.1)
  kPackedMemoryArray  ///< balances update and search (§3.3.2)
};

/// RMI structure mode (paper §3.4).
enum class RmiMode {
  kStatic,   ///< two-level root→leaves, fixed at initialization
  kAdaptive  ///< Algorithm-4 initialization + optional splitting on inserts
};

/// All tunables of the index. Defaults reproduce the paper's setup: data
/// space overhead ~43% (like B+Tree, §5.3.1), grid-searchable knobs noted.
struct Config {
  NodeLayout layout = NodeLayout::kGappedArray;
  RmiMode rmi_mode = RmiMode::kAdaptive;

  /// Gapped-array upper density limit `d` (Alg. 1). Expansion factor is
  /// c = 1/d²; d = 0.8 gives c ≈ 1.56 and ~43% average space overhead,
  /// matching the B+Tree-comparable configuration of §5. Grid-search this
  /// (or set via `SpaceBudgetToDensity`) for the Fig. 10 space sweep.
  double density_upper = 0.8;

  /// Fraction of capacity below which a node contracts after deletes (the
  /// inverse of expansion; §3.2 says deletes are strictly easier). Set to
  /// 0 to disable contraction.
  double density_lower = 0.16;  // = d²/4 for d = 0.8

  /// SRMI only: number of leaf models. 0 = auto (`n /
  /// Alex::kSrmiKeysPerModel` at bulk load). Grid-searched per dataset in
  /// the paper (§5.1).
  size_t num_models = 0;

  /// ARMI only: maximum bound for keys per data node (Alg. 4). "Can be
  /// tuned or learned for each dataset" (§3.4.1).
  size_t max_data_node_keys = 1024;

  /// ARMI only: number of model partitions given to each non-root inner
  /// node during adaptive initialization (§3.4.1).
  size_t inner_node_partitions = 64;

  /// ARMI only: leaves created when a data node splits on insert
  /// (§3.4.2): exactly this many under a new inner node when the split
  /// goes downward, at most this many (one per run of the parent's slots)
  /// when it goes sideways. "A parameter that can be tuned or learned for
  /// each dataset."
  size_t split_fanout = 4;

  /// ARMI only: enable node splitting on inserts (§3.4.2). The paper keeps
  /// this off unless the experiment needs it (distribution shift, §5.2.5;
  /// cold starts). The library defaults to on: it is what makes the index
  /// robust for general use.
  bool allow_splitting = true;

  /// Ablation switch: when false, bulk loads/expansions place keys evenly
  /// spaced (rank-based) instead of at their model-predicted positions,
  /// like the original Learned Index bulk load "without changing the
  /// position of records" (§3.2). Lookups still use the model. Disabling
  /// this isolates the benefit the paper attributes to model-based
  /// insertion (Fig. 7); see bench/ablation_model_insert.
  bool model_based_placement = true;

  /// Expansion factor c = 1/d² implied by the current density (§3.3.1:
  /// "the length of the array is 1/d² times the actual number of keys").
  double ExpansionFactor() const {
    return 1.0 / (density_upper * density_upper);
  }
};

/// Converts a target data-space budget (allocated slots per key, e.g. 1.43
/// for 43% overhead, 2.0 for 2x) into the density `d = sqrt(1/c)` of §3.3.1
/// ("Given a target budget for storage, we can set c in ALEX accordingly...
/// The upper density limit d is then set to sqrt(1/c)").
inline double SpaceBudgetToDensity(double expansion_factor) {
  if (expansion_factor < 1.0) expansion_factor = 1.0;
  return __builtin_sqrt(1.0 / expansion_factor);
}

/// A relaxed atomic counter that is copyable (so Stats snapshots stay
/// value-semantic) and drop-in compatible with plain uint64_t arithmetic.
/// Counters are bumped from concurrent leaf operations that hold only
/// per-leaf latches (see ConcurrentAlex), so the increments must be atomic;
/// relaxed ordering is enough because the counters are purely statistical.
class RelaxedCounter {
 public:
  RelaxedCounter(uint64_t v = 0) : v_(v) {}
  RelaxedCounter(const RelaxedCounter& other)
      : v_(other.v_.load(std::memory_order_relaxed)) {}
  RelaxedCounter& operator=(const RelaxedCounter& other) {
    v_.store(other.v_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator=(uint64_t v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }

  operator uint64_t() const { return v_.load(std::memory_order_relaxed); }
  RelaxedCounter& operator++() {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator+=(uint64_t d) {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Cumulative operation statistics (drives Figs. 7, 8, 9 and the drilldown
/// of §5.3). Counters survive node expansions, splits and deletions.
struct Stats {
  RelaxedCounter num_inserts;
  RelaxedCounter num_lookups;
  RelaxedCounter num_erases;
  RelaxedCounter num_shifts;       ///< element moves during inserts/rebalances
  RelaxedCounter num_expansions;   ///< data-node expansions (Alg. 3)
  RelaxedCounter num_contractions; ///< data-node contractions after deletes
  RelaxedCounter num_splits;       ///< node splits on inserts (§3.4.2)

  /// Fig. 8 metric.
  double ShiftsPerInsert() const {
    return num_inserts == 0 ? 0.0
                            : static_cast<double>(num_shifts) /
                                  static_cast<double>(num_inserts);
  }
};

}  // namespace alex::core
