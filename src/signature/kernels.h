#ifndef SMARTPSI_SIGNATURE_KERNELS_H_
#define SMARTPSI_SIGNATURE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"
#include "signature/compact_signature.h"
#include "signature/signature_matrix.h"
#include "signature/sparse_requirement.h"

namespace psi::signature {

/// Bulk satisfaction/score kernels over whole candidate lists (DESIGN.md
/// §9). Each candidate id is a row of the signature matrix; the kernels
/// sweep those rows in one pass instead of one scalar call per candidate,
/// touching only the O(nnz) labels of the sparse query requirement. The
/// scalar loops are structured for auto-vectorization; when the library is
/// built with the AVX2 toggle (see README) and the CPU supports it, an
/// explicit gather-based AVX2 path is dispatched at runtime. All paths make
/// byte-identical decisions, scores, and orderings (property-tested against
/// the dense scalar reference in signature_matrix.h).

/// True when the explicit AVX2 kernels were compiled in AND the running CPU
/// supports them (runtime dispatch; scalar fallback otherwise).
bool KernelsUseAvx2();

/// The Proposition 3.2 test for one candidate: true iff row `c` of `sigs`
/// satisfies `req`, bit-identical to the scalar Satisfies(sigs.row(c),
/// required). When `sigs` carries an attached CompactSignatureMatrix, the
/// row is first prescreened against the requirement's quantized threshold
/// codes — an 8-bit compare that rejects most non-satisfying rows without
/// touching their floats — and only prescreen survivors run the exact
/// float test. The prescreen can only over-admit (compact_signature.h), so
/// the decision is the float-only one either way. Defined below.
bool CandidateSatisfies(const SignatureMatrix& sigs,
                        const SparseRequirement& req, graph::NodeId c);

/// Removes the candidates that fail CandidateSatisfies, in place and
/// order-preserving. Returns the number of candidates pruned.
size_t FilterCandidates(const SignatureMatrix& sigs,
                        const SparseRequirement& req,
                        std::vector<graph::NodeId>& candidates);

/// Fills scores[i] with the satisfiability score of candidates[i], as the
/// float the search actually sorts by: bit-identical to
/// static_cast<float>(SatisfiabilityScore(sigs.row(c), required)).
/// `scores` must have candidates.size() entries.
void ScoreCandidates(const SignatureMatrix& sigs, const SparseRequirement& req,
                     std::span<const graph::NodeId> candidates,
                     std::span<float> scores);

/// How ScoreAndRank treats its `k` argument.
enum class RankMode {
  /// Rank the whole list; `k` is ignored.
  kFull,
  /// Keep the k *best-scoring* candidates via a bounded partial-sort
  /// (ties broken by original position). Equivalent to the first k
  /// entries of a kFull ranking, computed in O(n log k).
  kTopKByScore,
};

/// Reusable buffers for ScoreAndRank; hold one per search scratch so
/// repeated rankings allocate nothing after warmup.
struct RankScratch {
  std::vector<float> scores;
  std::vector<uint32_t> order;
  std::vector<uint64_t> keys;
  std::vector<graph::NodeId> tmp;
};

/// Reorders `candidates` by satisfiability score, descending, stable (ties
/// keep their original relative order) — exactly the order the optimist
/// visits. The ranking is bit-identical to scoring every candidate with the
/// scalar reference and stable-sorting by the float score.
void ScoreAndRank(const SignatureMatrix& sigs, const SparseRequirement& req,
                  std::vector<graph::NodeId>& candidates, RankScratch& scratch,
                  size_t k = 0, RankMode mode = RankMode::kFull);

namespace internal {

/// One-row primitives backing the bulk kernels (scalar or AVX2, dispatched
/// once at load). Exposed for tests and benchmarks.
bool RowSatisfies(std::span<const float> row, const SparseRequirement& req);
double RowScore(std::span<const float> row, const SparseRequirement& req);

/// Conservative quantized prescreen of one compact row: false means the
/// exact float test is guaranteed to fail; true means "maybe" and the
/// caller must re-check the float row. Dispatched scalar/AVX2 like
/// RowSatisfies; both paths return identical booleans for every input.
bool CompactRowMaySatisfy(std::span<const uint8_t> row,
                          const SparseRequirement& req);

/// The always-available scalar reference for CompactRowMaySatisfy (the
/// parity anchor of the property tests).
bool CompactRowMaySatisfyScalar(std::span<const uint8_t> row,
                                const SparseRequirement& req);

#if defined(PSI_HAVE_AVX2_KERNELS)
/// Definitions live in kernels_avx2.cc, compiled with -mavx2; only called
/// after a runtime __builtin_cpu_supports("avx2") check.
bool RowSatisfiesAvx2(const float* row, const uint32_t* idx, const float* val,
                      size_t nnz);
double RowScoreAvx2(const float* row, const uint32_t* idx, const double* val,
                    size_t nnz);
/// Dense variant of the compact prescreen: 32 labels per compare with
/// contiguous byte loads (no gathers). The tail is loaded as one full
/// vector and masked, so the kernel may *read* (never use) up to
/// CompactSignatureMatrix::kTailPadBytes bytes past the last code of both
/// `row` and `tcodes`; every compact buffer and every
/// SparseRequirement::dense_threshold_codes() buffer guarantees that pad.
bool CompactRowMaySatisfyAvx2(const uint8_t* row, const uint8_t* tcodes,
                              size_t dim);
#endif

}  // namespace internal

inline bool CandidateSatisfies(const SignatureMatrix& sigs,
                               const SparseRequirement& req, graph::NodeId c) {
  // An all-zero requirement constrains nothing; skip the row reads.
  if (req.nnz() == 0) return true;
  const CompactSignatureMatrix* compact = sigs.compact();
  if (compact != nullptr &&
      !internal::CompactRowMaySatisfy(compact->row(c), req)) {
    return false;
  }
  return internal::RowSatisfies(sigs.row(c), req);
}

}  // namespace psi::signature

#endif  // SMARTPSI_SIGNATURE_KERNELS_H_
