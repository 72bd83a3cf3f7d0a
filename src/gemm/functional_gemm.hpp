/**
 * @file
 * Functional (data-carrying) 2.5D and 1D GeMMs, used to verify
 * numerical correctness against a dense reference. The 2D algorithms
 * have no routines here: each is one `GemmSchedule`, and
 * `runFunctional` (`core/gemm_schedule`) runs it on real data.
 */
#ifndef MESHSLICE_GEMM_FUNCTIONAL_GEMM_HPP_
#define MESHSLICE_GEMM_FUNCTIONAL_GEMM_HPP_

#include "gemm/dist_matrix.hpp"

namespace meshslice {

/**
 * 2.5D GeMM (Solomonik-Demmel, Sec 7) on a P x P x c logical torus:
 * the P x P sharded inputs are replicated over c depth layers, layer l
 * runs P/c Cannon iterations starting from rotation offset l * P/c,
 * and the per-layer partial outputs are reduced over depth. Requires
 * c to divide P. Returns the P x P sharded product.
 */
DistMatrix func25DGemm(const DistMatrix &a, const DistMatrix &b,
                       int depth);

/**
 * 1D TP (sequence-parallel style): X sharded by rows over the ring, W
 * by columns; X is all-gathered, every chip computes its Y column
 * shard. Returns the Y column shards.
 */
std::vector<Matrix> func1DTP(const Matrix &x, const Matrix &w, int chips);

/**
 * FSDP: X sharded by rows (the data), W sharded by rows over the ring
 * and all-gathered before use; every chip computes its Y row shard.
 */
std::vector<Matrix> funcFsdp(const Matrix &x, const Matrix &w, int chips);

} // namespace meshslice

#endif // MESHSLICE_GEMM_FUNCTIONAL_GEMM_HPP_
