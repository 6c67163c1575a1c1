#ifndef SMARTPSI_ML_RANDOM_FOREST_H_
#define SMARTPSI_ML_RANDOM_FOREST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace psi::ml {

struct ForestConfig {
  size_t num_trees = 32;
  /// Bootstrap-sample size as a fraction of the training set.
  double bootstrap_fraction = 1.0;
  TreeConfig tree;
};

/// Random Forest classifier (Breiman 2001) — the learner SmartPSI trains
/// on-the-fly for node-type prediction (Model α, binary) and plan selection
/// (Model β, multi-class). Bagged CART trees with sqrt(F) feature
/// subsampling per split; prediction by soft majority vote.
///
/// Training draws every tree's bootstrap sample and its own forked RNG
/// stream from `rng` serially, in tree order, and only then fits the trees
/// (across `pool` when given). The fitted forest is therefore a pure
/// function of (data, rng state) at every pool size, including none.
class RandomForest {
 public:
  /// Trains on the full dataset. `num_classes` must cover all labels.
  void Train(const Dataset& data, size_t num_classes,
             const ForestConfig& config, util::Rng& rng,
             util::ThreadPool* pool = nullptr);

  /// Trains on a subset of rows.
  void Train(const Dataset& data, std::span<const size_t> indices,
             size_t num_classes, const ForestConfig& config, util::Rng& rng,
             util::ThreadPool* pool = nullptr);

  int32_t Predict(std::span<const float> features) const;

  /// Normalized per-class vote shares (size num_classes).
  std::vector<double> PredictProba(std::span<const float> features) const;

  size_t num_trees() const { return trees_.size(); }
  size_t num_classes() const { return num_classes_; }
  bool trained() const { return !trees_.empty(); }

 private:
  size_t num_classes_ = 0;
  std::vector<DecisionTree> trees_;
};

}  // namespace psi::ml

#endif  // SMARTPSI_ML_RANDOM_FOREST_H_
