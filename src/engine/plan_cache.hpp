/**
 * @file
 * Content-addressed LRU cache of typed plans (DESIGN.md §4k).
 *
 * Keys are the exact `PlanKey::full()` fingerprint texts (not hashes —
 * two queries share an entry iff every fingerprinted field is
 * identical). Each entry is one immutable `CachedPlan` shared by
 * pointer: the plan, its canonical JSON (the bytes every serve of the
 * entry returns) and the phase-1/2 shortlist. The shortlist is what a
 * query with a matching *base* key (model|cluster|tune equal, fault
 * different) reuses on the incremental re-tune path.
 *
 * JSON is written only by `serialize()` and parsed only by `load()`.
 * Persistence is deterministic: entries sorted by key, so serialize →
 * load → serialize is byte-identical and a restarted engine
 * warm-starts from disk. Counters (hit/miss/eviction/insert/base_hit,
 * plus a size gauge) publish through an optional `StatsRegistry` under
 * `engine/cache/...`.
 *
 * NOT internally synchronized: the `PlanEngine` serializes all access
 * under its own mutex (the cache is also usable directly from
 * single-threaded tests and tools).
 */
#ifndef MESHSLICE_ENGINE_PLAN_CACHE_HPP_
#define MESHSLICE_ENGINE_PLAN_CACHE_HPP_

#include <cstddef>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/plan_types.hpp"
#include "sim/stats.hpp"

namespace meshslice {

/** One cached plan; immutable once built, so readers share it. */
struct CachedPlan
{
    EnginePlan plan;
    /** `enginePlanToJson(plan)`, made once when the entry is built. */
    std::string planJson;
    /**
     * The phase-1/2 output the plan was tuned from: the top-K mesh
     * shapes by nominal estimate, each a complete plan. Sized by
     * `shortlistSizeFor` and prefix stable, so every consumer
     * truncates to its own K.
     */
    std::vector<AutotuneResult> shortlist;
};

using CachedPlanPtr = std::shared_ptr<const CachedPlan>;

/** Build an entry, serializing @p plan once. */
CachedPlanPtr makeCachedPlan(EnginePlan plan,
                             std::vector<AutotuneResult> shortlist);

/** LRU map from full plan keys to typed plans + shortlists. */
class PlanCache
{
  public:
    /** @p capacity > 0 entries; @p stats may be null (no counters). */
    explicit PlanCache(size_t capacity, StatsRegistry *stats = nullptr);

    /**
     * Look @p key up; on a hit makes the entry most-recently-used and
     * returns it, else null. Counts `engine/cache/hit` or `.../miss`.
     */
    CachedPlanPtr lookup(const std::string &key);

    /**
     * The most-recently-used entry whose base key equals @p base (any
     * fault profile), or null — the incremental-re-tune warm start.
     * Does not touch recency. Counts `engine/cache/base_hit` on
     * success.
     */
    CachedPlanPtr findBase(const std::string &base) const;

    /**
     * Insert (or overwrite) @p key as most-recently-used, evicting the
     * least-recently-used entry when over capacity. Counts
     * `engine/cache/insert` and `engine/cache/eviction`.
     */
    void insert(const std::string &key, const std::string &base,
                CachedPlanPtr value);

    size_t size() const { return index_.size(); }
    size_t capacity() const { return capacity_; }

    /**
     * Deterministic persistence document: entries sorted by full key
     * (recency is an in-memory detail; sorted order makes the file a
     * pure function of the cache *contents*).
     */
    std::string serialize() const;

    /**
     * Replace the contents with @p text (a `serialize()` document).
     * Entries insert in sorted-key order under the cache's own
     * capacity, so loading a larger dump keeps the lexicographically
     * last `capacity()` entries. Every plan and shortlist is parsed
     * here; malformed input (including an empty shortlist) is fatal
     * with a byte offset or key path into @p context.
     */
    void load(const std::string &text, const std::string &context);

    /** `serialize()` into @p path; fatal when the write fails. */
    void saveFile(const std::string &path) const;

    /** `load()` from @p path; returns false (untouched cache) when the
     *  file does not exist, fatal on an unreadable or malformed one. */
    bool loadFileIfExists(const std::string &path);

  private:
    struct Entry
    {
        std::string key;
        std::string base;
        CachedPlanPtr value;
    };

    void count(const char *name) const;

    size_t capacity_;
    StatsRegistry *stats_;
    std::list<Entry> lru_; ///< front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> index_;
};

} // namespace meshslice

#endif // MESHSLICE_ENGINE_PLAN_CACHE_HPP_
