#include "core/spec.hpp"

#include <numeric>

#include "util/logging.hpp"
#include "util/math.hpp"

namespace meshslice {

const char *
dataflowName(Dataflow df)
{
    switch (df) {
      case Dataflow::kOS:
        return "OS";
      case Dataflow::kLS:
        return "LS";
      case Dataflow::kRS:
        return "RS";
    }
    return "?";
}

const char *
algorithmName(Algorithm algo)
{
    switch (algo) {
      case Algorithm::kMeshSlice:
        return "MeshSlice";
      case Algorithm::kCollective:
        return "Collective";
      case Algorithm::kWang:
        return "Wang";
      case Algorithm::kSumma:
        return "SUMMA";
      case Algorithm::kCannon:
        return "Cannon";
      case Algorithm::kOneSided:
        return "OneSided";
      case Algorithm::kOneDTP:
        return "1DTP";
      case Algorithm::kFsdp:
        return "FSDP";
    }
    return "?";
}

Dataflow
dataflowFromName(std::string_view name, const std::string &context)
{
    for (Dataflow df : {Dataflow::kOS, Dataflow::kLS, Dataflow::kRS})
        if (name == dataflowName(df))
            return df;
    fatal("%s: unknown dataflow \"%.*s\" (want OS/LS/RS)",
          context.c_str(), static_cast<int>(name.size()), name.data());
}

Algorithm
algorithmFromName(std::string_view name, const std::string &context)
{
    for (Algorithm algo : allAlgorithms())
        if (name == algorithmName(algo))
            return algo;
    fatal("%s: unknown algorithm \"%.*s\"", context.c_str(),
          static_cast<int>(name.size()), name.data());
}

std::vector<Algorithm>
all2DAlgorithms()
{
    return {Algorithm::kMeshSlice, Algorithm::kCollective, Algorithm::kWang,
            Algorithm::kSumma, Algorithm::kCannon, Algorithm::kOneSided};
}

std::vector<Algorithm>
allAlgorithms()
{
    return {Algorithm::kMeshSlice, Algorithm::kCollective, Algorithm::kWang,
            Algorithm::kSumma, Algorithm::kCannon, Algorithm::kOneSided,
            Algorithm::kOneDTP, Algorithm::kFsdp};
}

bool
runsOutputStationaryOnly(Algorithm algo)
{
    return algo == Algorithm::kCannon || algo == Algorithm::kOneSided;
}

std::string
Gemm2DSpec::str() const
{
    return strprintf("%s[M=%lld,K=%lld,N=%lld]@%dx%d,S=%d",
                     dataflowName(dataflow), static_cast<long long>(m),
                     static_cast<long long>(k), static_cast<long long>(n),
                     rows, cols, sliceCount);
}

FlowSide
horizontalFlow(const Gemm2DSpec &spec)
{
    const Bytes e = spec.bytesPerElement;
    switch (spec.dataflow) {
      case Dataflow::kOS:
      case Dataflow::kRS:
        return FlowSide{spec.m * spec.k * e, CollKind::kAllGather};
      case Dataflow::kLS:
        return FlowSide{spec.m * spec.n * e, CollKind::kReduceScatter};
    }
    panic("horizontalFlow: bad dataflow");
}

FlowSide
verticalFlow(const Gemm2DSpec &spec)
{
    const Bytes e = spec.bytesPerElement;
    switch (spec.dataflow) {
      case Dataflow::kOS:
      case Dataflow::kLS:
        return FlowSide{spec.k * spec.n * e, CollKind::kAllGather};
      case Dataflow::kRS:
        return FlowSide{spec.m * spec.n * e, CollKind::kReduceScatter};
    }
    panic("verticalFlow: bad dataflow");
}

Bytes
stationaryShardBytes(const Gemm2DSpec &spec)
{
    const Bytes e = spec.bytesPerElement;
    const Bytes chips = spec.rows * static_cast<Bytes>(spec.cols);
    switch (spec.dataflow) {
      case Dataflow::kOS:
        return spec.m * spec.n * e / chips;
      case Dataflow::kLS:
        return spec.m * spec.k * e / chips;
      case Dataflow::kRS:
        return spec.k * spec.n * e / chips;
    }
    panic("stationaryShardBytes: bad dataflow");
}

GemmWork
localSliceWork(const Gemm2DSpec &spec)
{
    const std::int64_t s = spec.sliceCount;
    switch (spec.dataflow) {
      case Dataflow::kOS:
        return GemmWork{spec.m / spec.rows, spec.k / s, spec.n / spec.cols};
      case Dataflow::kLS:
        return GemmWork{spec.m / spec.rows, spec.k / spec.cols,
                        spec.n / s};
      case Dataflow::kRS:
        return GemmWork{spec.m / s, spec.k / spec.rows, spec.n / spec.cols};
    }
    panic("localSliceWork: bad dataflow");
}

std::int64_t
slicedDim(const Gemm2DSpec &spec)
{
    switch (spec.dataflow) {
      case Dataflow::kOS:
        return spec.k;
      case Dataflow::kLS:
        return spec.n;
      case Dataflow::kRS:
        return spec.m;
    }
    panic("slicedDim: bad dataflow");
}

namespace {

void
requireDivides(const char *what, std::int64_t dim, std::int64_t by,
               const char *by_name, const std::string &spec)
{
    if (by > 0 && dim % by != 0)
        fatal("Gemm2DSpec %s: %s=%lld is not divisible by %s=%lld "
              "(the partition would truncate work)",
              spec.c_str(), what, static_cast<long long>(dim), by_name,
              static_cast<long long>(by));
}

} // namespace

void
validateSpec(const Gemm2DSpec &spec)
{
    const std::string s = spec.str();
    if (spec.m <= 0 || spec.k <= 0 || spec.n <= 0)
        fatal("Gemm2DSpec %s: dimensions must be positive", s.c_str());
    if (spec.rows < 1 || spec.cols < 1)
        fatal("Gemm2DSpec %s: mesh shape %dx%d must be at least 1x1",
              s.c_str(), spec.rows, spec.cols);
    if (spec.sliceCount < 1)
        fatal("Gemm2DSpec %s: slice count %d must be >= 1", s.c_str(),
              spec.sliceCount);
    if (spec.bytesPerElement <= 0)
        fatal("Gemm2DSpec %s: bytesPerElement %d must be positive",
              s.c_str(), spec.bytesPerElement);
    // Divisibility of the localSliceWork partition, per Fig 1 dataflow.
    switch (spec.dataflow) {
      case Dataflow::kOS:
        requireDivides("M", spec.m, spec.rows, "rows", s);
        requireDivides("N", spec.n, spec.cols, "cols", s);
        requireDivides("K", spec.k, spec.sliceCount, "sliceCount", s);
        break;
      case Dataflow::kLS:
        requireDivides("M", spec.m, spec.rows, "rows", s);
        requireDivides("K", spec.k, spec.cols, "cols", s);
        requireDivides("N", spec.n, spec.sliceCount, "sliceCount", s);
        break;
      case Dataflow::kRS:
        requireDivides("M", spec.m, spec.sliceCount, "sliceCount", s);
        requireDivides("K", spec.k, spec.rows, "rows", s);
        requireDivides("N", spec.n, spec.cols, "cols", s);
        break;
    }
}

void
validateSpec(const Gemm1DSpec &spec)
{
    if (spec.m <= 0 || spec.k <= 0 || spec.n <= 0)
        fatal("Gemm1DSpec [M=%lld,K=%lld,N=%lld]: dimensions must be "
              "positive",
              static_cast<long long>(spec.m),
              static_cast<long long>(spec.k),
              static_cast<long long>(spec.n));
    if (spec.chips < 1)
        fatal("Gemm1DSpec: chip count %d must be >= 1", spec.chips);
    if (spec.sliceCount < 1)
        fatal("Gemm1DSpec: slice count %d must be >= 1", spec.sliceCount);
    if (spec.bytesPerElement <= 0)
        fatal("Gemm1DSpec: bytesPerElement %d must be positive",
              spec.bytesPerElement);
    if (spec.commBytes < 0)
        fatal("Gemm1DSpec: commBytes %lld must be non-negative",
              static_cast<long long>(spec.commBytes));
    if (spec.local.m <= 0 || spec.local.k <= 0 || spec.local.n <= 0)
        fatal("Gemm1DSpec: local GeMM work [%lld,%lld,%lld] must be "
              "positive (was the builder skipped?)",
              static_cast<long long>(spec.local.m),
              static_cast<long long>(spec.local.k),
              static_cast<long long>(spec.local.n));
}

std::vector<int>
validSliceCounts(const ChipConfig &cfg, const Gemm2DSpec &spec, int max_s)
{
    const std::int64_t dim = slicedDim(spec);
    // The sliced matrix shards have extent dim/rows (resp. dim/cols) in
    // the sliced dimension; S * B must divide both per-chip extents.
    const std::int64_t per_row = dim / spec.rows;
    const std::int64_t per_col = dim / spec.cols;
    const std::int64_t g = std::gcd(per_row, per_col) / cfg.memBlockCols;
    std::vector<int> out;
    if (g <= 0)
        return {1};
    for (std::int64_t d : divisorsOf(g)) {
        if (d > max_s)
            break;
        out.push_back(static_cast<int>(d));
    }
    if (out.empty())
        out.push_back(1);
    return out;
}

} // namespace meshslice
