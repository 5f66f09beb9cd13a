#include "dramcache/perceptron_predictor.hh"

namespace c3d
{

namespace
{

/** Fibonacci multiplicative mix (same family as the region slot). */
inline std::uint64_t
mix(std::uint64_t x)
{
    x *= 0x9e3779b97f4a7c15ull;
    return x ^ (x >> 32);
}

} // namespace

void
PerceptronPredictor::configure(const SystemConfig &cfg,
                               StatGroup *stats,
                               const std::string &name)
{
    MissPredictor::configure(cfg, stats, name);

    c3d_assert(cfg.perceptronTableEntries > 0 &&
                   (cfg.perceptronTableEntries &
                    (cfg.perceptronTableEntries - 1)) == 0,
               "perceptron table entries must be a power of two");
    c3d_assert(cfg.ghostBufferBits >= 64 &&
                   (cfg.ghostBufferBits &
                    (cfg.ghostBufferBits - 1)) == 0,
               "ghost buffer bits must be a power of two >= 64");
    c3d_assert(cfg.perceptronWeightMax > 0, "weight bound must be > 0");

    tableEntries = cfg.perceptronTableEntries;
    weightMax = cfg.perceptronWeightMax;
    threshold = cfg.perceptronThreshold;
    trainMargin = cfg.perceptronTrainMargin;
    weights.assign(static_cast<std::size_t>(tableEntries) * NumFeatures,
                   0);
    historyFold = 0;

    ghostBits.assign(cfg.ghostBufferBits / 64, 0);
    ghostMask = cfg.ghostBufferBits - 1;
    ghostInserts = 0;
    ghostResetAt = cfg.ghostBufferResetEvictions;

    trains.init(stats, name + ".trains",
                "perceptron weight-update events");
    bypasses.init(stats, name + ".bypasses",
                  "clean fills rejected by the admission gate");
    ghostHitCount.init(stats, name + ".ghost_hits",
                       "misses matching a recently evicted line");
}

void
PerceptronPredictor::featureIndices(Addr addr, std::uint32_t tenant,
                                    std::uint32_t idx[NumFeatures]) const
{
    const std::uint64_t region = addr >> regionShift;
    // Feature 1: the region itself.
    idx[0] = static_cast<std::uint32_t>(mix(region)) &
        (tableEntries - 1);
    // Feature 2: requester-colored region. Untracked runs pass a
    // constant tenant, so the feature degrades to a second region
    // hash rather than noise.
    idx[1] = static_cast<std::uint32_t>(
                 mix(region ^ (static_cast<std::uint64_t>(tenant)
                               << 40))) &
        (tableEntries - 1);
    // Feature 3: fold of recent probe history.
    idx[2] = static_cast<std::uint32_t>(mix(region ^ historyFold)) &
        (tableEntries - 1);
}

std::int32_t
PerceptronPredictor::weightSum(Addr addr, std::uint32_t tenant) const
{
    std::uint32_t idx[NumFeatures];
    featureIndices(addr, tenant, idx);
    std::int32_t sum = 0;
    for (std::size_t f = 0; f < NumFeatures; ++f)
        sum += weights[f * tableEntries + idx[f]];
    return sum;
}

void
PerceptronPredictor::adjust(const std::uint32_t idx[NumFeatures],
                            int direction)
{
    ++trains;
    for (std::size_t f = 0; f < NumFeatures; ++f) {
        std::int32_t &w = weights[f * tableEntries + idx[f]];
        // Saturate at [-weightMax - 1, weightMax] (6-bit two's
        // complement for the default bound of 31).
        if (direction > 0 && w < weightMax)
            ++w;
        else if (direction < 0 && w > -weightMax - 1)
            --w;
    }
}

bool
PerceptronPredictor::admit(Addr addr, std::uint32_t tenant)
{
    const bool cache = weightSum(addr, tenant) >= threshold;
    if (!cache) {
        ++bypasses;
        // A bypassed line enters the ghost buffer like an evicted
        // one: if it is re-requested soon, the ghost hit trains the
        // weights back toward caching. Without this, full bypass
        // would starve the trainer of positive examples and lock in
        // (nothing cached -> no hits -> no recovery).
        ghostInsert(addr);
    }
    return cache;
}

void
PerceptronPredictor::trainOnProbe(Addr addr, std::uint32_t tenant,
                                  bool hit)
{
    std::uint32_t idx[NumFeatures];
    featureIndices(addr, tenant, idx);
    std::int32_t sum = 0;
    for (std::size_t f = 0; f < NumFeatures; ++f)
        sum += weights[f * tableEntries + idx[f]];

    // A hit is a reuse of a cached line: caching its kind paid off.
    // A miss that matches the ghost buffer means the line WAS cached
    // and got evicted before this reuse -- also a vote for caching.
    // Any other miss is traffic that caching has not been serving.
    bool toward_cache = hit;
    if (!hit && ghostContains(addr)) {
        ++ghostHitCount;
        toward_cache = true;
    }

    // Perceptron update rule: correct the weights on a mispredict,
    // and keep reinforcing while confidence is within the margin.
    const bool predicted_cache = sum >= threshold;
    if (predicted_cache != toward_cache ||
        (sum < threshold + trainMargin &&
         sum > threshold - trainMargin)) {
        adjust(idx, toward_cache ? +1 : -1);
    }

    // Fold the probed region into the path history (after training,
    // so a probe never trains on its own history bit).
    historyFold = mix(historyFold) ^ (addr >> regionShift);
}

void
PerceptronPredictor::onRemove(Addr addr)
{
    MissPredictor::onRemove(addr);
    ghostInsert(addr);
}

void
PerceptronPredictor::ghostInsert(Addr addr)
{
    if (++ghostInserts > ghostResetAt) {
        ghostBits.assign(ghostBits.size(), 0);
        ghostInserts = 1;
    }
    const std::uint64_t h = mix(blockNumber(addr));
    const std::uint32_t b0 = static_cast<std::uint32_t>(h) & ghostMask;
    const std::uint32_t b1 =
        static_cast<std::uint32_t>(h >> 32) & ghostMask;
    ghostBits[b0 / 64] |= 1ull << (b0 % 64);
    ghostBits[b1 / 64] |= 1ull << (b1 % 64);
}

bool
PerceptronPredictor::ghostContains(Addr addr) const
{
    const std::uint64_t h = mix(blockNumber(addr));
    const std::uint32_t b0 = static_cast<std::uint32_t>(h) & ghostMask;
    const std::uint32_t b1 =
        static_cast<std::uint32_t>(h >> 32) & ghostMask;
    return (ghostBits[b0 / 64] >> (b0 % 64) & 1) &&
        (ghostBits[b1 / 64] >> (b1 % 64) & 1);
}

std::unique_ptr<MissPredictor>
makeMissPredictor(const SystemConfig &cfg)
{
    switch (cfg.predictorKind) {
      case PredictorKind::Region:
        return std::make_unique<MissPredictor>();
      case PredictorKind::Perceptron:
        return std::make_unique<PerceptronPredictor>();
    }
    c3d_panic("unknown predictor kind");
    return nullptr;
}

} // namespace c3d
