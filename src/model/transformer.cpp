#include "model/transformer.hpp"

#include <algorithm>

#include "hw/compute_model.hpp"
#include "util/logging.hpp"

namespace meshslice {

TransformerConfig
gpt3Config()
{
    TransformerConfig cfg;
    cfg.name = "GPT-3";
    cfg.layers = 96;
    cfg.hiddenDim = 12288;
    cfg.heads = 96;
    cfg.ffnDim = 4 * 12288;
    return cfg;
}

TransformerConfig
megatronNlgConfig()
{
    TransformerConfig cfg;
    cfg.name = "Megatron";
    cfg.layers = 105;
    cfg.hiddenDim = 20480;
    cfg.heads = 128;
    cfg.ffnDim = 4 * 20480;
    return cfg;
}

const char *
passName(Pass pass)
{
    switch (pass) {
      case Pass::kForward:
        return "fwd";
      case Pass::kBackwardData:
        return "bwdD";
      case Pass::kBackwardWeight:
        return "bwdW";
    }
    return "?";
}

std::vector<FcGemm>
blockFcGemms(const TransformerConfig &model, const TrainingConfig &train)
{
    const std::int64_t m = train.tokens();
    const std::int64_t h = model.hiddenDim;
    struct Layer
    {
        const char *name;
        std::int64_t in;
        std::int64_t out;
    };
    const Layer layers[4] = {
        {"qkv", h, 3 * h},
        {"proj", h, h},
        {"ffn1", h, model.ffnDim},
        {"ffn2", model.ffnDim, h},
    };
    std::vector<FcGemm> out;
    out.reserve(12);
    for (int l = 0; l < 4; ++l) {
        const Layer &layer = layers[l];
        // Forward: Y[M,out] = X[M,in] W[in,out].
        out.push_back(FcGemm{std::string(layer.name) + ".fwd", m, layer.in,
                             layer.out, Pass::kForward, l});
        // Backward data: X'[M,in] = Y'[M,out] W^T.
        out.push_back(FcGemm{std::string(layer.name) + ".bwdD", m,
                             layer.out, layer.in, Pass::kBackwardData, l});
        // Backward weight: W'[in,out] = X^T[in,M] Y'[M,out].
        out.push_back(FcGemm{std::string(layer.name) + ".bwdW", layer.in, m,
                             layer.out, Pass::kBackwardWeight, l});
    }
    return out;
}

std::vector<WeightedFcGemm>
distinctFcGemms(const TransformerConfig &model, const TrainingConfig &train)
{
    std::vector<WeightedFcGemm> distinct;
    for (const FcGemm &gemm : blockFcGemms(model, train)) {
        bool merged = false;
        for (WeightedFcGemm &entry : distinct) {
            const FcGemm &d = entry.gemm;
            const bool same =
                d.k == gemm.k &&
                ((d.m == gemm.m && d.n == gemm.n) ||
                 (d.m == gemm.n && d.n == gemm.m)); // transpose-equal
            if (same) {
                ++entry.count;
                merged = true;
                break;
            }
        }
        if (!merged)
            distinct.push_back(WeightedFcGemm{gemm, 1});
    }
    return distinct;
}

Time
nonFcBlockTime(const ChipConfig &cfg, const TransformerConfig &model,
               const TrainingConfig &train, int chips)
{
    const double m = static_cast<double>(train.tokens());
    const double h = static_cast<double>(model.hiddenDim);
    const double f = static_cast<double>(model.ffnDim);
    const double s = static_cast<double>(train.seqLen);

    // Attention score (Q K^T) and context (P V) batched GeMMs:
    // 2 GeMMs * 2 M s H FLOPs forward, 2x that for backward. Batched
    // attention GeMMs run at roughly half matrix-unit efficiency
    // (s x headDim tiles).
    const double attn_flops = 3.0 * 2.0 * (2.0 * m * s * h);
    const Time attn_time =
        attn_flops / (0.5 * cfg.peakFlops) / static_cast<double>(chips);

    // Element-wise / reduction traffic (HBM-bound): layernorms,
    // softmax, GeLU, residuals, dropout masks — roughly 20 activation
    // reads+writes of M*H plus softmax's M*s per head, fwd+bwd.
    const double e = cfg.bytesPerElement;
    const double elem_bytes =
        3.0 * (20.0 * m * h * e + 4.0 * m * s * e + 4.0 * m * f * e / 4.0);
    const Time elem_time =
        elem_bytes / cfg.hbmBandwidth / static_cast<double>(chips);

    return attn_time + elem_time;
}

Gemm1DSpec
make1DSpec(const FcGemm &gemm, Algorithm algo, int chips,
           int bytes_per_element)
{
    Gemm2DSpec ring;
    ring.m = gemm.m;
    ring.k = gemm.k;
    ring.n = gemm.n;
    ring.cols = chips;
    ring.bytesPerElement = bytes_per_element;
    Gemm1DSpec spec = to1DSpec(ring, algo);
    if (gemm.pass == Pass::kBackwardWeight) {
        spec.commBytes = gemm.m * gemm.n * Bytes{bytes_per_element};
        spec.commIsReduce = true;
        spec.local = GemmWork{gemm.m, gemm.k / chips, gemm.n};
    }
    return spec;
}

} // namespace meshslice
