#include "ml/random_forest.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace psi::ml {

void RandomForest::Train(const Dataset& data, size_t num_classes,
                         const ForestConfig& config, util::Rng& rng,
                         util::ThreadPool* pool) {
  std::vector<size_t> all(data.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  Train(data, all, num_classes, config, rng, pool);
}

void RandomForest::Train(const Dataset& data,
                         std::span<const size_t> indices, size_t num_classes,
                         const ForestConfig& config, util::Rng& rng,
                         util::ThreadPool* pool) {
  assert(num_classes >= 1);
  num_classes_ = num_classes;
  trees_.assign(config.num_trees, DecisionTree());

  TreeConfig tree_config = config.tree;
  if (tree_config.features_per_split == 0) {
    tree_config.features_per_split = std::max<size_t>(
        1, static_cast<size_t>(
               std::lround(std::sqrt(static_cast<double>(
                   data.num_features())))));
  }

  const size_t sample_size =
      indices.empty()
          ? 0
          : std::max<size_t>(
                1, static_cast<size_t>(static_cast<double>(indices.size()) *
                                       config.bootstrap_fraction));
  std::vector<std::vector<size_t>> bootstraps(trees_.size());
  std::vector<util::Rng> tree_rngs;
  tree_rngs.reserve(trees_.size());
  for (std::vector<size_t>& bootstrap : bootstraps) {
    bootstrap.resize(sample_size);
    for (size_t& row : bootstrap) {
      row = indices[rng.NextBounded(indices.size())];
    }
    tree_rngs.push_back(rng.Fork());
  }

  const auto train_trees = [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      trees_[t].Train(data, bootstraps[t], num_classes, tree_config,
                      tree_rngs[t]);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(trees_.size(), train_trees);
  } else {
    train_trees(0, trees_.size());
  }
}

std::vector<double> RandomForest::PredictProba(
    std::span<const float> features) const {
  std::vector<double> votes(num_classes_, 0.0);
  for (const auto& tree : trees_) tree.AccumulateVotes(features, votes);
  double total = 0.0;
  for (const double v : votes) total += v;
  if (total > 0.0) {
    for (double& v : votes) v /= total;
  }
  return votes;
}

int32_t RandomForest::Predict(std::span<const float> features) const {
  assert(trained());
  // Stack buffer for the common case — Predict is the per-candidate hot
  // path of SmartPSI and must not allocate.
  constexpr size_t kStackClasses = 16;
  double stack_votes[kStackClasses] = {};
  std::vector<double> heap_votes;
  std::span<double> votes;
  if (num_classes_ <= kStackClasses) {
    votes = {stack_votes, num_classes_};
  } else {
    heap_votes.assign(num_classes_, 0.0);
    votes = heap_votes;
  }
  for (const auto& tree : trees_) tree.AccumulateVotes(features, votes);
  return static_cast<int32_t>(
      std::max_element(votes.begin(), votes.end()) - votes.begin());
}

}  // namespace psi::ml
