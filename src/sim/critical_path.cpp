#include "sim/critical_path.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/trace.hpp"
#include "util/logging.hpp"

namespace meshslice {

const char *
spanCategoryName(SpanCategory cat)
{
    switch (cat) {
      case SpanCategory::kCompute: return "compute";
      case SpanCategory::kComm: return "comm";
      case SpanCategory::kLaunch: return "launch";
      case SpanCategory::kSync: return "sync";
      case SpanCategory::kBubble: return "bubble";
      case SpanCategory::kRecovery: return "recovery";
      case SpanCategory::kCheckpoint: return "checkpoint";
    }
    return "?";
}

ResourceClass
resourceClassOf(const std::string &name)
{
    if (name.rfind("link.", 0) == 0 || name.rfind("ici.", 0) == 0 ||
        name.rfind("dcn", 0) == 0) {
        return ResourceClass::kLink;
    }
    auto dot = name.rfind('.');
    std::string leaf = dot == std::string::npos ? name
                                                : name.substr(dot + 1);
    if (leaf == "core")
        return ResourceClass::kCore;
    if (leaf == "hbm")
        return ResourceClass::kHbm;
    return ResourceClass::kOther;
}

void
FlowInfoAccum::fold(const FlowEndInfo &f)
{
    if (!f.valid)
        return;
    // The join finishes with its last flow; that flow's binding
    // resource is what the node waits on, so later folds win.
    info.binding = f.binding;
    info.throttledSeconds = std::max(info.throttledSeconds,
                                     f.throttledSeconds);
    info.coreFloor = std::max(info.coreFloor, f.coreFloor);
    info.hbmFloor = std::max(info.hbmFloor, f.hbmFloor);
    info.linkFloor = std::max(info.linkFloor, f.linkFloor);
    info.valid = true;
}

// --- SpanRecorder ----------------------------------------------------

void
SpanRecorder::clear()
{
    nodes_.clear();
    tasks_.clear();
    ambient_.clear();
    recoveryDepth_ = 0;
    recoveryDep_ = -1;
}

int
SpanRecorder::addNode(std::string name, SpanCategory cat, Time begin,
                      Time end, std::vector<int> deps, int chip)
{
    if (!enabled())
        return -1;
    int id = static_cast<int>(nodes_.size());
    if (recoveryDepth_ > 0) {
        cat = SpanCategory::kRecovery;
        if (recoveryDep_ >= 0 &&
            std::find(deps.begin(), deps.end(), recoveryDep_) ==
                deps.end()) {
            deps.push_back(recoveryDep_);
        }
    }
    for (int dep : deps) {
        if (dep < 0 || dep >= id)
            panic("SpanRecorder: bad dep %d for node %d", dep, id);
    }
    SpanNode node;
    node.id = id;
    node.name = std::move(name);
    node.category = cat;
    node.begin = begin;
    node.end = end;
    node.chip = chip;
    node.deps = std::move(deps);
    nodes_.push_back(std::move(node));
    return id;
}

void
SpanRecorder::setNodeResource(int node, const FlowEndInfo &info)
{
    if (!enabled() || node < 0 || !info.valid)
        return;
    SpanNode &n = nodes_.at(node);
    n.binding = info.binding;
    n.throttledSeconds = info.throttledSeconds;
    n.coreFloor = info.coreFloor;
    n.hbmFloor = info.hbmFloor;
    n.linkFloor = info.linkFloor;
}

int
SpanRecorder::newTask(const std::vector<int> &dep_tasks)
{
    if (!enabled())
        return -1;
    int id = static_cast<int>(tasks_.size());
    TaskScope scope;
    scope.depTasks = dep_tasks;
    tasks_.push_back(std::move(scope));
    return id;
}

void
SpanRecorder::beginTask(int task)
{
    Scope scope;
    scope.task = task;
    ambient_.push_back(std::move(scope));
}

void
SpanRecorder::endTask()
{
    if (!ambient_.empty())
        ambient_.pop_back();
}

void
SpanRecorder::beginChain(int task, std::vector<int> deps)
{
    Scope scope;
    scope.task = task;
    scope.hasDeps = true;
    scope.deps = std::move(deps);
    ambient_.push_back(std::move(scope));
}

void
SpanRecorder::endChain()
{
    if (!ambient_.empty())
        ambient_.pop_back();
}

int
SpanRecorder::currentTask() const
{
    return ambient_.empty() ? -1 : ambient_.back().task;
}

std::vector<int>
SpanRecorder::taskDeps(int task) const
{
    std::vector<int> deps;
    if (task < 0 || task >= static_cast<int>(tasks_.size()))
        return deps;
    for (int dep_task : tasks_[task].depTasks) {
        for (int node : tasks_[dep_task].exits) {
            if (std::find(deps.begin(), deps.end(), node) == deps.end())
                deps.push_back(node);
        }
    }
    return deps;
}

std::vector<int>
SpanRecorder::ambientDeps() const
{
    if (!ambient_.empty() && ambient_.back().hasDeps)
        return ambient_.back().deps;
    return taskDeps(currentTask());
}

void
SpanRecorder::addTaskExit(int task, int node)
{
    if (task < 0 || node < 0)
        return;
    tasks_.at(task).exits.push_back(node);
}

void
SpanRecorder::finishTask(int task)
{
    if (task < 0 || task >= static_cast<int>(tasks_.size()))
        return;
    TaskScope &scope = tasks_[task];
    if (scope.exits.empty()) {
        // Nodeless task (e.g. a pure join): forward its entry deps so
        // downstream tasks still see through to the real work.
        scope.exits = taskDeps(task);
    }
}

void
SpanRecorder::beginRecovery(int dep_node)
{
    ++recoveryDepth_;
    if (recoveryDepth_ == 1)
        recoveryDep_ = dep_node;
}

void
SpanRecorder::endRecovery()
{
    if (recoveryDepth_ > 0 && --recoveryDepth_ == 0)
        recoveryDep_ = -1;
}

// --- SpanContext -----------------------------------------------------

SpanContext::SpanContext(SpanRecorder &rec)
{
    if (!rec.enabled())
        return;
    rec_ = &rec;
    task_ = rec.currentTask();
    deps_ = rec.ambientDeps();
    recovery_ = rec.inRecovery();
    const int root = rec.recoveryDep();
    if (root >= 0 &&
        std::find(deps_.begin(), deps_.end(), root) == deps_.end())
        deps_.push_back(root);
}

int
SpanContext::record(std::string name, SpanCategory cat, Time begin,
                    Time end, std::vector<int> deps, int chip,
                    const FlowEndInfo &flow) const
{
    if (!enabled())
        return -1;
    const int node = rec_->addNode(
        std::move(name), recovery_ ? SpanCategory::kRecovery : cat, begin,
        end, std::move(deps), chip);
    rec_->setNodeResource(node, flow);
    return node;
}

// --- analysis --------------------------------------------------------

double
Attribution::total() const
{
    double sum = 0.0;
    for (double v : byCategory)
        sum += v;
    return sum;
}

Attribution
extractCriticalPath(const std::vector<SpanNode> &nodes)
{
    Attribution attr;
    if (nodes.empty())
        return attr;

    Time t0 = std::numeric_limits<double>::infinity();
    int last = 0;
    for (const SpanNode &n : nodes) {
        t0 = std::min(t0, n.begin);
        // Latest end wins; ties resolve to the smallest id so the
        // walk is deterministic regardless of recording interleaving.
        if (n.end > nodes[last].end)
            last = n.id;
    }
    attr.spanBegin = t0;
    attr.spanEnd = nodes[last].end;

    auto emit = [&attr](int node, SpanCategory cat, Time b, Time e) {
        if (e <= b)
            return;
        attr.segments.push_back({node, cat, b, e});
        attr.byCategory[static_cast<int>(cat)] += e - b;
    };

    // Backward telescoping walk: each iteration owns [?, frontier] and
    // hands the earlier part to its latest-ending dependency. Bodies
    // and gaps are contiguous, so they partition [t0, t1] exactly and
    // the per-category sums telescope to t1 - t0.
    int cur = last;
    Time frontier = nodes[last].end;
    while (true) {
        const SpanNode &n = nodes[cur];
        Time body_begin = std::min(n.begin, frontier);
        emit(cur, n.category, body_begin, frontier);
        attr.pathNodes.push_back(cur);
        frontier = body_begin;
        if (frontier <= t0)
            break;
        int pred = -1;
        for (int dep : n.deps) {
            if (pred < 0 || nodes[dep].end > nodes[pred].end)
                pred = dep;
        }
        if (pred < 0) {
            // Root node idle-started after t0: charge the wait.
            emit(-1, SpanCategory::kBubble, t0, frontier);
            break;
        }
        if (nodes[pred].end < frontier) {
            emit(-1, SpanCategory::kBubble, nodes[pred].end, frontier);
            frontier = nodes[pred].end;
        }
        cur = pred;
    }
    std::reverse(attr.segments.begin(), attr.segments.end());
    std::reverse(attr.pathNodes.begin(), attr.pathNodes.end());
    return attr;
}

std::vector<double>
computeSlack(const std::vector<SpanNode> &nodes)
{
    std::vector<double> slack(nodes.size(), 0.0);
    if (nodes.empty())
        return slack;
    Time t1 = -std::numeric_limits<double>::infinity();
    for (const SpanNode &n : nodes)
        t1 = std::max(t1, n.end);
    std::vector<char> has_succ(nodes.size(), 0);
    for (const SpanNode &n : nodes)
        for (int dep : n.deps)
            has_succ[dep] = 1;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < nodes.size(); ++i)
        slack[i] = has_succ[i] ? kInf : t1 - nodes[i].end;
    // deps are < id, so reverse id order is a reverse topological walk.
    for (std::size_t i = nodes.size(); i-- > 0;) {
        const SpanNode &n = nodes[i];
        for (int dep : n.deps) {
            double lag = std::max(0.0, n.begin - nodes[dep].end);
            slack[dep] = std::min(slack[dep], slack[i] + lag);
        }
    }
    return slack;
}

namespace {

double
classScale(const WhatIfScale &s, ResourceClass cls)
{
    switch (cls) {
      case ResourceClass::kCore: return s.core;
      case ResourceClass::kHbm: return s.hbm;
      case ResourceClass::kLink: return s.link;
      default: return 1.0;
    }
}

/** The resource class whose speed bounds @p n under what-if scaling. */
ResourceClass
bindingClassOf(const SpanNode &n)
{
    if (!n.binding.empty())
        return resourceClassOf(n.binding);
    // Flow-less nodes: infer from the category so graphs recorded
    // without fluid info (hand-built tests) still replay sensibly.
    switch (n.category) {
      case SpanCategory::kCompute: return ResourceClass::kCore;
      case SpanCategory::kComm: return ResourceClass::kLink;
      default: return ResourceClass::kOther;
    }
}

} // namespace

double
whatIfReplay(const std::vector<SpanNode> &nodes, const WhatIfScale &scale)
{
    if (nodes.empty())
        return 0.0;
    std::vector<Time> new_end(nodes.size(), 0.0);
    Time begin0 = std::numeric_limits<double>::infinity();
    Time span_end = -std::numeric_limits<double>::infinity();
    for (const SpanNode &n : nodes) {
        double dur = n.duration();
        bool scalable = n.category == SpanCategory::kCompute ||
                        n.category == SpanCategory::kComm ||
                        n.category == SpanCategory::kRecovery;
        if (scalable) {
            double scaled = dur / classScale(scale, bindingClassOf(n));
            // A class that is not the binding one still imposes its
            // solo-service floor: 2x links cannot push a transfer
            // below the time its HBM stream needs.
            scaled = std::max(scaled, n.coreFloor / scale.core);
            scaled = std::max(scaled, n.hbmFloor / scale.hbm);
            scaled = std::max(scaled, n.linkFloor / scale.link);
            dur = std::min(dur, scaled); // speedups only shrink work
        }
        Time begin = n.begin;
        if (!n.deps.empty()) {
            // The gap between the last-finishing dependency and this
            // node's start is launch/queueing cost and is preserved;
            // gaps to earlier-finishing dependencies are slack, not
            // constraints, so they must not pin the replayed start.
            Time dep_end = -std::numeric_limits<double>::infinity();
            Time new_dep_end = dep_end;
            for (int dep : n.deps) {
                dep_end = std::max(dep_end, nodes[dep].end);
                new_dep_end = std::max(new_dep_end, new_end[dep]);
            }
            begin = new_dep_end + std::max(0.0, n.begin - dep_end);
        }
        new_end[n.id] = begin + dur;
        begin0 = std::min(begin0, begin);
        span_end = std::max(span_end, new_end[n.id]);
    }
    return span_end - begin0;
}

double
ExplainRecord::categoryShare(SpanCategory cat) const
{
    return span > 0.0 ? byCategory[static_cast<int>(cat)] / span : 0.0;
}

ExplainRecord
explainGraph(const std::vector<SpanNode> &nodes)
{
    ExplainRecord rec;
    rec.nodeCount = static_cast<int>(nodes.size());
    if (nodes.empty())
        return rec;
    Attribution attr = extractCriticalPath(nodes);
    rec.span = attr.span();
    for (int c = 0; c < kSpanCategoryCount; ++c)
        rec.byCategory[c] = attr.byCategory[c];
    rec.attributionError = std::fabs(attr.total() - rec.span);

    std::vector<double> slack = computeSlack(nodes);
    std::vector<int> zero;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (slack[i] <= 1e-12 && nodes[i].duration() > 0.0)
            zero.push_back(static_cast<int>(i));
    }
    std::sort(zero.begin(), zero.end(), [&](int a, int b) {
        double da = nodes[a].duration(), db = nodes[b].duration();
        return da != db ? da > db : a < b;
    });
    for (std::size_t i = 0; i < zero.size() && i < 5; ++i) {
        const SpanNode &n = nodes[zero[i]];
        rec.hotSpans.push_back({n.name, n.chip, n.duration(),
                                slack[zero[i]]});
    }

    WhatIfScale compute2x;
    compute2x.core = 2.0;
    rec.whatifCompute2x = whatIfReplay(nodes, compute2x);
    WhatIfScale link2x;
    link2x.link = 2.0;
    rec.whatifLink2x = whatIfReplay(nodes, link2x);
    return rec;
}

void
annotateCriticalPath(TraceRecorder &trace,
                     const std::vector<SpanNode> &nodes,
                     const Attribution &attr)
{
    if (!trace.enabled() || attr.segments.empty())
        return;
    trace.setProcessName(kCriticalPathPid, "critical_path");
    trace.setThreadName(kCriticalPathPid, 0, "attribution");
    for (const PathSegment &seg : attr.segments) {
        std::string name = spanCategoryName(seg.category);
        if (seg.node >= 0)
            name += ": " + nodes[seg.node].name;
        trace.record(std::move(name), "critical_path", kCriticalPathPid,
                     0, seg.begin, seg.end);
    }
    // Flow arrows chain consecutive path nodes on their home lanes.
    for (std::size_t i = 0; i + 1 < attr.pathNodes.size(); ++i) {
        const SpanNode &a = nodes[attr.pathNodes[i]];
        const SpanNode &b = nodes[attr.pathNodes[i + 1]];
        std::uint64_t id = trace.newFlowId();
        int pid_a = a.chip >= 0 ? a.chip : kCriticalPathPid;
        int pid_b = b.chip >= 0 ? b.chip : kCriticalPathPid;
        trace.recordFlow("critical_path", "critical_path", id, pid_a, 0,
                         a.end, true);
        trace.recordFlow("critical_path", "critical_path", id, pid_b, 0,
                         std::max(b.begin, a.end), false);
    }
}

} // namespace meshslice
