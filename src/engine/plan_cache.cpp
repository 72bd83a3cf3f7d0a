#include "engine/plan_cache.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "engine/plan_json.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace meshslice {

CachedPlanPtr
makeCachedPlan(EnginePlan plan, std::vector<AutotuneResult> shortlist)
{
    auto entry = std::make_shared<CachedPlan>();
    entry->planJson = enginePlanToJson(plan);
    entry->plan = std::move(plan);
    entry->shortlist = std::move(shortlist);
    return entry;
}

PlanCache::PlanCache(size_t capacity, StatsRegistry *stats)
    : capacity_(capacity), stats_(stats)
{
    if (capacity_ == 0)
        fatal("PlanCache: capacity must be positive");
}

void
PlanCache::count(const char *name) const
{
    if (stats_ != nullptr)
        stats_->add(std::string("engine/cache/") + name, 1.0);
}

CachedPlanPtr
PlanCache::lookup(const std::string &key)
{
    auto it = index_.find(key);
    if (it == index_.end()) {
        count("miss");
        return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    count("hit");
    return lru_.front().value;
}

CachedPlanPtr
PlanCache::findBase(const std::string &base) const
{
    for (const Entry &e : lru_) {
        if (e.base != base)
            continue;
        count("base_hit");
        return e.value;
    }
    return nullptr;
}

void
PlanCache::insert(const std::string &key, const std::string &base,
                  CachedPlanPtr value)
{
    auto it = index_.find(key);
    if (it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        lru_.front().base = base;
        lru_.front().value = std::move(value);
    } else {
        lru_.push_front(Entry{key, base, std::move(value)});
        index_[key] = lru_.begin();
        count("insert");
        while (index_.size() > capacity_) {
            index_.erase(lru_.back().key);
            lru_.pop_back();
            count("eviction");
        }
    }
    if (stats_ != nullptr)
        stats_->set("engine/cache/size",
                    static_cast<double>(index_.size()));
}

std::string
PlanCache::serialize() const
{
    std::vector<const Entry *> sorted;
    sorted.reserve(lru_.size());
    for (const Entry &e : lru_)
        sorted.push_back(&e);
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry *a, const Entry *b) { return a->key < b->key; });
    std::string out;
    out += "{\n  \"entries\": [";
    for (size_t i = 0; i < sorted.size(); ++i) {
        out += i == 0 ? "\n" : ",\n";
        out += "    {\"key\": ";
        out += jsonString(sorted[i]->key);
        out += ", \"base\": ";
        out += jsonString(sorted[i]->base);
        out += ", \"plan\": ";
        out += jsonString(sorted[i]->value->planJson);
        out += ", \"shortlist\": ";
        out += jsonString(shortlistToJson(sorted[i]->value->shortlist));
        out += "}";
    }
    out += sorted.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

void
PlanCache::load(const std::string &text, const std::string &context)
{
    const JsonValue root = parseJson(text, "PlanCache", context);
    JsonReader r(root, "PlanCache", context);
    lru_.clear();
    index_.clear();
    size_t i = 0;
    r.each("entries", [&](JsonReader &e) {
        const std::string where =
            strprintf("%s entry %zu", context.c_str(), i++);
        EnginePlan plan =
            enginePlanFromJson(e.get<std::string>("plan"), where + " plan");
        std::vector<AutotuneResult> shortlist = shortlistFromJson(
            e.get<std::string>("shortlist"), where + " shortlist");
        if (shortlist.empty())
            fatal("PlanCache: %s: empty shortlist", where.c_str());
        insert(e.get<std::string>("key"), e.get<std::string>("base"),
               makeCachedPlan(std::move(plan), std::move(shortlist)));
    });
    r.finish();
}

void
PlanCache::saveFile(const std::string &path) const
{
    std::ofstream out(path);
    out << serialize();
    out.flush();
    if (!out)
        fatal("PlanCache: failed writing %s", path.c_str());
}

bool
PlanCache::loadFileIfExists(const std::string &path)
{
    std::ifstream in(path);
    if (!in.is_open())
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad())
        fatal("PlanCache: failed reading %s", path.c_str());
    load(buf.str(), path);
    return true;
}

} // namespace meshslice
