/**
 * @file
 * Transformer LLM workload definitions (Sec 4.4).
 *
 * A transformer block has four FC layers — two in multi-head attention
 * (QKV projection and output projection) and two in the feed-forward
 * network. Training each FC layer runs three GeMMs: forward
 * (Y = X W), backward-data (X' = Y' W^T) and backward-weight
 * (W' = X^T Y'). Only the FC layers communicate under 2D TP; the other
 * operators run chip-locally (Sec 4.4) and are covered by an analytical
 * roofline estimate standing in for the paper's single-TPU benchmarks.
 */
#ifndef MESHSLICE_MODEL_TRANSFORMER_HPP_
#define MESHSLICE_MODEL_TRANSFORMER_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "core/spec.hpp"
#include "hw/chip_config.hpp"
#include "util/units.hpp"

namespace meshslice {

/** Architecture of a transformer LLM. */
struct TransformerConfig
{
    std::string name;
    std::int64_t layers = 0;     ///< transformer blocks
    std::int64_t hiddenDim = 0;  ///< H = heads * headDim
    std::int64_t heads = 0;
    std::int64_t ffnDim = 0;     ///< feed-forward inner dimension
    std::int64_t vocab = 51200;

    std::int64_t headDim() const { return hiddenDim / heads; }

    /** Approximate parameter count of the block stack. */
    double
    parameterCount() const
    {
        const double h = static_cast<double>(hiddenDim);
        const double f = static_cast<double>(ffnDim);
        // QKV (h x 3h) + proj (h x h) + FFN (2 * h * f) per block.
        return static_cast<double>(layers) * (4.0 * h * h + 2.0 * h * f);
    }
};

/** OpenAI GPT-3 175B (Brown et al.). */
TransformerConfig gpt3Config();

/** NVIDIA/Microsoft Megatron-Turing NLG 530B (Smith et al.). */
TransformerConfig megatronNlgConfig();

/** Training hyperparameters (Sec 5.1.1). */
struct TrainingConfig
{
    std::int64_t batch = 0;     ///< sequences per step
    std::int64_t seqLen = 2048; ///< tokens per sequence

    std::int64_t tokens() const { return batch * seqLen; }

    /** Weak scaling: batch = chips / 2 (the Megatron-NLG recipe). */
    static TrainingConfig
    weakScaling(int chips)
    {
        return TrainingConfig{chips / 2, 2048};
    }
};

/** The three training computations of an FC layer. */
enum class Pass { kForward, kBackwardData, kBackwardWeight };

const char *passName(Pass pass);

/**
 * One FC-layer GeMM in training, in computational form: an m x n
 * output contracting k.
 */
struct FcGemm
{
    std::string name; ///< e.g. "qkv.fwd"
    std::int64_t m = 0;
    std::int64_t k = 0;
    std::int64_t n = 0;
    Pass pass = Pass::kForward;
    int fcLayer = 0; ///< 0=QKV, 1=proj, 2=FFN1, 3=FFN2

    Flops
    flops() const
    {
        return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
               static_cast<double>(n);
    }
};

/**
 * The 12 FC GeMMs of one transformer block (4 layers x 3 passes) at
 * the given batch/sequence.
 */
std::vector<FcGemm> blockFcGemms(const TransformerConfig &model,
                                 const TrainingConfig &train);

/**
 * The 1D baseline spec of one FC GeMM on a ring of @p chips (Sec 4.3):
 * `to1DSpec`'s forward and backward-data form, except that the
 * backward-weight pass of both baselines reduce-scatters the (m x n)
 * weight gradient and shards k.
 */
Gemm1DSpec make1DSpec(const FcGemm &gemm, Algorithm algo, int chips,
                      int bytes_per_element);

/**
 * The distinct GeMM shapes among `blockFcGemms` (transpose-equivalent
 * shapes merged) — the paper's "eight distinct GeMM operations"
 * (Sec 5.1.4), annotated with how many block GeMMs share each shape.
 */
struct WeightedFcGemm
{
    FcGemm gemm;
    int count = 1;
};
std::vector<WeightedFcGemm> distinctFcGemms(const TransformerConfig &model,
                                            const TrainingConfig &train);

/**
 * Estimated per-chip execution time of one block's non-FC operators
 * (attention score/context GeMMs, softmax, layernorm, GeLU, residual)
 * for forward plus backward, with activations sharded over @p chips.
 * Roofline: batched attention GeMMs at matrix-unit throughput,
 * element-wise traffic at HBM bandwidth. Substitutes the paper's
 * single-TPU measurements.
 */
Time nonFcBlockTime(const ChipConfig &cfg, const TransformerConfig &model,
                    const TrainingConfig &train, int chips);

} // namespace meshslice

#endif // MESHSLICE_MODEL_TRANSFORMER_HPP_
