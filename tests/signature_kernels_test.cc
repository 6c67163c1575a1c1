#include "signature/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "signature/signature_matrix.h"
#include "signature/sparse_requirement.h"
#include "util/random.h"

namespace psi::signature {
namespace {

// Fills a matrix with random signature-like rows: mostly sparse positives,
// occasional exact copies of `required` (exercise the epsilon boundary) and
// near-misses a hair below it.
SignatureMatrix MakeRandomMatrix(size_t rows, size_t labels,
                                 std::span<const float> required,
                                 util::Rng& rng) {
  SignatureMatrix m(rows, labels, Method::kExploration, /*depth=*/2);
  for (size_t i = 0; i < rows; ++i) {
    const double flavor = rng.NextDouble();
    auto row = m.row(i);
    if (flavor < 0.1 && !required.empty()) {
      std::copy(required.begin(), required.end(), row.begin());
    } else if (flavor < 0.2 && !required.empty()) {
      // Epsilon-boundary: each entry required ± about the epsilon, so keep
      // and prune both depend on the exact comparison the reference makes.
      for (size_t l = 0; l < labels; ++l) {
        const float wiggle =
            static_cast<float>((rng.NextDouble() - 0.5) * 4e-5);
        row[l] = std::max(0.0f, required[l] + wiggle);
      }
    } else {
      for (size_t l = 0; l < labels; ++l) {
        row[l] = rng.NextBool(0.4)
                     ? static_cast<float>(rng.NextDouble() * 2.0)
                     : 0.0f;
      }
    }
  }
  return m;
}

std::vector<float> MakeRandomRequired(size_t labels, util::Rng& rng,
                                      double density) {
  std::vector<float> required(labels, 0.0f);
  for (size_t l = 0; l < labels; ++l) {
    if (rng.NextBool(density)) {
      required[l] = static_cast<float>(rng.NextDouble() * 1.5 + 1e-3);
    }
  }
  return required;
}

std::vector<graph::NodeId> AllRows(size_t n) {
  std::vector<graph::NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}

// Reference ranking: score every candidate with the dense scalar oracle,
// then stable-sort descending by the float cast (exactly what the search
// sorts by).
std::vector<graph::NodeId> ReferenceRank(
    const SignatureMatrix& sigs, std::span<const float> required,
    std::vector<graph::NodeId> candidates) {
  std::vector<float> scores(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    scores[i] = static_cast<float>(
        SatisfiabilityScore(sigs.row(candidates[i]), required));
  }
  std::vector<uint32_t> order(candidates.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) { return scores[a] > scores[b]; });
  std::vector<graph::NodeId> ranked(candidates.size());
  for (size_t i = 0; i < order.size(); ++i) ranked[i] = candidates[order[i]];
  return ranked;
}

TEST(SparseRequirementTest, MatchesDenseReferenceBitForBit) {
  util::Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t labels = 1 + rng.NextBounded(40);
    const auto required = MakeRandomRequired(labels, rng, 0.3);
    const SignatureMatrix m = MakeRandomMatrix(64, labels, required, rng);
    SparseRequirement req(required);
    EXPECT_EQ(req.dim(), labels);
    for (size_t i = 0; i < m.num_rows(); ++i) {
      const auto row = m.row(i);
      EXPECT_EQ(req.Satisfies(row), Satisfies(row, required));
      const double dense = SatisfiabilityScore(row, required);
      const double sparse = req.Score(row);
      // Bit-identical, not approximately equal.
      EXPECT_EQ(std::memcmp(&dense, &sparse, sizeof(double)), 0)
          << "trial " << trial << " row " << i;
    }
  }
}

TEST(SparseRequirementTest, AssignReusesAndHandlesAllZero) {
  SparseRequirement req;
  const std::vector<float> zeros(16, 0.0f);
  req.Assign(zeros);
  EXPECT_EQ(req.nnz(), 0u);
  EXPECT_EQ(req.dim(), 16u);
  const std::vector<float> row(16, 1.0f);
  EXPECT_TRUE(req.Satisfies(row));
  EXPECT_EQ(req.Score(row), 0.0);

  std::vector<float> dense(16, 0.0f);
  dense[3] = 0.5f;
  dense[9] = 1.25f;
  req.Assign(dense);
  EXPECT_EQ(req.nnz(), 2u);
  EXPECT_EQ(req.indices()[0], 3u);
  EXPECT_EQ(req.indices()[1], 9u);
}

TEST(SparseRequirementTest, EmptyDimension) {
  SparseRequirement req(std::span<const float>{});
  EXPECT_EQ(req.dim(), 0u);
  EXPECT_EQ(req.nnz(), 0u);
  EXPECT_TRUE(req.Satisfies({}));
  EXPECT_EQ(req.Score({}), 0.0);
}

TEST(FilterCandidatesTest, KeepPruneIdenticalToScalarReference) {
  util::Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t labels = 1 + rng.NextBounded(32);
    const size_t rows = 1 + rng.NextBounded(300);
    const auto required = MakeRandomRequired(labels, rng, 0.4);
    const SignatureMatrix m = MakeRandomMatrix(rows, labels, required, rng);
    const SparseRequirement req(required);

    std::vector<graph::NodeId> batched = AllRows(rows);
    const size_t pruned = FilterCandidates(m, req, batched);

    std::vector<graph::NodeId> reference;
    for (graph::NodeId c = 0; c < rows; ++c) {
      if (Satisfies(m.row(c), required)) reference.push_back(c);
    }
    EXPECT_EQ(batched, reference) << "trial " << trial;
    EXPECT_EQ(pruned, rows - reference.size());
  }
}

TEST(FilterCandidatesTest, AllZeroRequirementKeepsEverything) {
  util::Rng rng(11);
  const std::vector<float> required(8, 0.0f);
  const SignatureMatrix m = MakeRandomMatrix(50, 8, required, rng);
  const SparseRequirement req(required);
  std::vector<graph::NodeId> candidates = AllRows(50);
  EXPECT_EQ(FilterCandidates(m, req, candidates), 0u);
  EXPECT_EQ(candidates, AllRows(50));
}

TEST(ScoreCandidatesTest, BitIdenticalToScalarReference) {
  util::Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t labels = 1 + rng.NextBounded(48);
    const size_t rows = 1 + rng.NextBounded(200);
    const auto required = MakeRandomRequired(labels, rng, 0.35);
    const SignatureMatrix m = MakeRandomMatrix(rows, labels, required, rng);
    const SparseRequirement req(required);
    const auto candidates = AllRows(rows);

    std::vector<float> scores(rows);
    ScoreCandidates(m, req, candidates, scores);
    for (size_t i = 0; i < rows; ++i) {
      const float reference =
          static_cast<float>(SatisfiabilityScore(m.row(i), required));
      EXPECT_EQ(std::memcmp(&scores[i], &reference, sizeof(float)), 0)
          << "trial " << trial << " row " << i;
    }
  }
}

TEST(ScoreAndRankTest, FullRankMatchesStableSortReference) {
  util::Rng rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t labels = 1 + rng.NextBounded(24);
    const size_t rows = 1 + rng.NextBounded(250);
    const auto required = MakeRandomRequired(labels, rng, 0.4);
    const SignatureMatrix m = MakeRandomMatrix(rows, labels, required, rng);
    const SparseRequirement req(required);

    std::vector<graph::NodeId> batched = AllRows(rows);
    RankScratch scratch;
    ScoreAndRank(m, req, batched, scratch);
    EXPECT_EQ(batched, ReferenceRank(m, required, AllRows(rows)))
        << "trial " << trial;
  }
}

TEST(ScoreAndRankTest, StableOnTies) {
  // Duplicate rows score identically; stable ranking must preserve their
  // original relative order.
  SignatureMatrix m(6, 4, Method::kExploration, 1);
  for (size_t i = 0; i < 6; ++i) {
    auto row = m.row(i);
    row[0] = (i < 3) ? 2.0f : 1.0f;  // two score classes, three ties each
    row[1] = 1.0f;
  }
  std::vector<float> required = {1.0f, 1.0f, 0.0f, 0.0f};
  const SparseRequirement req(required);
  std::vector<graph::NodeId> candidates = {5, 1, 4, 0, 3, 2};
  RankScratch scratch;
  ScoreAndRank(m, req, candidates, scratch);
  // High scorers (rows 0..2) first in original order 1,0,2; then 5,4,3.
  EXPECT_EQ(candidates, (std::vector<graph::NodeId>{1, 0, 2, 5, 4, 3}));
}

TEST(ScoreAndRankTest, TopKEqualsPrefixOfFullRank) {
  util::Rng rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t labels = 1 + rng.NextBounded(16);
    const size_t rows = 2 + rng.NextBounded(200);
    const size_t k = 1 + rng.NextBounded(rows + 5);
    const auto required = MakeRandomRequired(labels, rng, 0.5);
    const SignatureMatrix m = MakeRandomMatrix(rows, labels, required, rng);
    const SparseRequirement req(required);

    std::vector<graph::NodeId> batched = AllRows(rows);
    RankScratch scratch;
    ScoreAndRank(m, req, batched, scratch, k, RankMode::kTopKByScore);

    std::vector<graph::NodeId> reference =
        ReferenceRank(m, required, AllRows(rows));
    if (reference.size() > k) reference.resize(k);
    EXPECT_EQ(batched, reference) << "trial " << trial << " k=" << k;
  }
}

TEST(ScoreAndRankTest, ZeroLabelMatrix) {
  SignatureMatrix m(4, 0, Method::kExploration, 1);
  const SparseRequirement req(std::span<const float>{});
  std::vector<graph::NodeId> candidates = {3, 1, 0, 2};
  RankScratch scratch;
  ScoreAndRank(m, req, candidates, scratch);
  // nnz == 0: every score is 0.0, stable sort keeps the original order.
  EXPECT_EQ(candidates, (std::vector<graph::NodeId>{3, 1, 0, 2}));

  std::vector<graph::NodeId> filtered = {3, 1, 0, 2};
  EXPECT_EQ(FilterCandidates(m, req, filtered), 0u);
  EXPECT_EQ(filtered.size(), 4u);
}

TEST(RowKernelsTest, DispatchMatchesScalarOnEveryWidth) {
  // Exercise nnz values around the 8-wide AVX2 boundary (tails of every
  // length) regardless of which path is dispatched.
  util::Rng rng(29);
  for (size_t nnz = 0; nnz <= 19; ++nnz) {
    const size_t labels = nnz + 1 + rng.NextBounded(10);
    std::vector<float> required(labels, 0.0f);
    std::vector<size_t> positions(labels);
    std::iota(positions.begin(), positions.end(), 0u);
    util::Shuffle(positions, rng);
    for (size_t j = 0; j < nnz; ++j) {
      required[positions[j]] = static_cast<float>(rng.NextDouble() + 1e-3);
    }
    const SignatureMatrix m = MakeRandomMatrix(40, labels, required, rng);
    const SparseRequirement req(required);
    ASSERT_EQ(req.nnz(), nnz);
    for (size_t i = 0; i < m.num_rows(); ++i) {
      const auto row = m.row(i);
      EXPECT_EQ(internal::RowSatisfies(row, req), Satisfies(row, required));
      const double kernel = internal::RowScore(row, req);
      const double reference = SatisfiabilityScore(row, required);
      EXPECT_EQ(std::memcmp(&kernel, &reference, sizeof(double)), 0)
          << "nnz=" << nnz << " row " << i
          << " avx2=" << KernelsUseAvx2();
    }
  }
}

TEST(RowHashTest, MatchesHashSignatureAndMemoizes) {
  util::Rng rng(31);
  const auto required = MakeRandomRequired(12, rng, 0.5);
  const SignatureMatrix m = MakeRandomMatrix(30, 12, required, rng);
  for (size_t i = 0; i < m.num_rows(); ++i) {
    const uint64_t h = m.RowHash(i);
    const uint64_t direct = HashSignature(m.row(i));
    // Identical unless the row hit the reserved sentinel 0 (then RowHash
    // substitutes a fixed value).
    EXPECT_EQ(h, direct == 0 ? 0x9e3779b97f4a7c15ULL : direct);
    EXPECT_EQ(m.RowHash(i), h);  // memoized value is stable
  }
}

TEST(RowHashTest, CopyDropsMemoizedHashes) {
  SignatureMatrix m(2, 3, Method::kMatrix, 1);
  m.at(0, 1) = 1.0f;
  const uint64_t before = m.RowHash(0);
  SignatureMatrix copy = m;
  // Mutating the copy then hashing must reflect the new contents — the
  // copy must not have inherited the original's memoized value.
  copy.at(0, 1) = 2.0f;
  EXPECT_NE(copy.RowHash(0), before);
  EXPECT_EQ(m.RowHash(0), before);
}

TEST(RowHashTest, ConcurrentReadersAgree) {
  util::Rng rng(37);
  const auto required = MakeRandomRequired(16, rng, 0.5);
  const SignatureMatrix m = MakeRandomMatrix(256, 16, required, rng);
  std::vector<std::vector<uint64_t>> per_thread(4);
  std::vector<std::thread> threads;
  for (auto& out : per_thread) {
    threads.emplace_back([&m, &out] {
      out.resize(m.num_rows());
      for (size_t i = 0; i < m.num_rows(); ++i) out[i] = m.RowHash(i);
    });
  }
  for (auto& t : threads) t.join();
  for (size_t t = 1; t < per_thread.size(); ++t) {
    EXPECT_EQ(per_thread[t], per_thread[0]);
  }
}

}  // namespace
}  // namespace psi::signature
