/**
 * @file
 * Critical-path profiler: causal span graph, bottleneck attribution,
 * slack, and Daydream-style what-if replay.
 *
 * While a simulation runs with the profiler enabled, every unit of
 * simulated work (a chip's GeMM flow, one ring step of a collective
 * with its launch/transfer/sync sub-spans, a reshard transfer, a
 * pipeline micro-batch task) is recorded as a `SpanNode` with causal
 * dependency edges. Edges come from three sources: the TaskGraph (a
 * task's first nodes depend on the exit nodes of its dependency
 * tasks), intra-operation ordering (ring step s+1 depends on step s),
 * and recovery detours (a retried collective depends on the abort
 * marker of the failed attempt). Every op captures those edges the
 * same way: a `SpanContext` taken synchronously when the op starts
 * (in the task body, chain or recovery scope that started it), which
 * the op records through from its event callbacks and finishes with
 * (exits on the task, `done` inside a chain scope). Only `TaskGraph`
 * opens task scopes, and only callers that stage a detour open
 * recovery scopes; the ambient reads behind them are private to the
 * recorder and its `SpanContext`. The fluid network additionally
 * publishes, per finished flow, which resource was rate-limiting
 * ("binding"), how many seconds contention cost the flow, and the
 * per-resource-class solo-service floors — enough to replay the graph
 * under hypothetical hardware without re-simulating.
 *
 * On top of the recorded graph this header provides:
 *  - `extractCriticalPath`: a backward telescoping walk from the last-
 *    finishing node whose segments partition [t0, t1] exactly, so the
 *    per-category attribution sums to the simulated span to float
 *    tolerance (enforced as a bench cross-check);
 *  - `computeSlack`: per-node slack (seconds the node's finish can
 *    slip, offsets preserved, without growing the span);
 *  - `whatIfReplay`: re-estimate the span after scaling a resource
 *    class by x k, clamped by the other classes' service floors;
 *  - `explainGraph`: the machine-readable `ExplainRecord` the tuners
 *    attach to top-K candidates;
 *  - `annotateCriticalPath`: Chrome-trace flow events + a dedicated
 *    `critical_path` track so Perfetto highlights the path.
 *
 * The recorder follows the stats-registry convention: one relaxed
 * atomic load when disabled, no allocation, and recording never feeds
 * back into simulation (bit-identical-off, thread-count-invariant —
 * each Cluster owns its recorder and clusters are single-threaded).
 */
#ifndef MESHSLICE_SIM_CRITICAL_PATH_HPP_
#define MESHSLICE_SIM_CRITICAL_PATH_HPP_

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace meshslice {

class TraceRecorder;

/** Attribution category of one span-graph node. */
enum class SpanCategory : int
{
    kCompute = 0,  ///< a chip's GeMM (core+HBM) flow
    kComm = 1,     ///< exposed communication (transfer on links)
    kLaunch = 2,   ///< fixed software launch overhead
    kSync = 3,     ///< fixed per-step synchronization latency
    kBubble = 4,   ///< idle gap on the critical path (no node runs)
    kRecovery = 5, ///< recovery detour (abort + retried work)
    kCheckpoint = 6, ///< elastic-runtime checkpoint write traffic
};
constexpr int kSpanCategoryCount = 7;

/** Display name of @p cat ("compute", "comm", ...). */
const char *spanCategoryName(SpanCategory cat);

/** Resource class of a named cluster resource, for what-if scaling. */
enum class ResourceClass : int
{
    kCore = 0,
    kHbm = 1,
    kLink = 2,
    kOther = 3,
};

/** Classify a fluid-resource name ("chip3.core", "link.E.b0.r0.c1"). */
ResourceClass resourceClassOf(const std::string &name);

/** One node of the causal span graph. */
struct SpanNode
{
    int id = -1;
    std::string name;
    SpanCategory category = SpanCategory::kCompute;
    Time begin = 0.0;
    Time end = 0.0;
    int chip = -1; ///< representative chip (-1: mesh-wide)
    /** Causal predecessors; every dep id is < this id. */
    std::vector<int> deps;
    /** Rate-limiting resource of the node's (last-finishing) flow. */
    std::string binding;
    /** Seconds the flow ran below its solo rate (contention cost). */
    double throttledSeconds = 0.0;
    /** Solo-service floors per resource class (seconds the node needs
     *  on that class even if everything else were infinitely fast). */
    double coreFloor = 0.0;
    double hbmFloor = 0.0;
    double linkFloor = 0.0;

    double duration() const { return end - begin; }
};

/** Per-flow info the fluid network publishes when profiling is on. */
struct FlowEndInfo
{
    bool valid = false;
    std::string binding; ///< rate-limiting resource name ("" unknown)
    double throttledSeconds = 0.0;
    double coreFloor = 0.0;
    double hbmFloor = 0.0;
    double linkFloor = 0.0;
};

/** Running max-fold of FlowEndInfo over the flows joined by a node. */
struct FlowInfoAccum
{
    FlowEndInfo info;
    void fold(const FlowEndInfo &f);
};

/**
 * Records the span graph of one simulated run. Owned by `Cluster`
 * alongside the trace recorder and stats registry; off by default.
 * All recording calls are single-threaded per recorder (a cluster's
 * simulation is single-threaded); `enabled()` is a relaxed atomic so
 * cross-thread enable checks are race-free.
 */
class SpanRecorder
{
  public:
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }
    void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /** Drop all nodes and task scopes (enable state unchanged). */
    void clear();

    /**
     * Append a node. Deps must reference earlier nodes (enforced).
     * While a recovery scope is open the category is overridden to
     * `kRecovery` and the scope's detour root is added as a dep.
     * @return the node id, or -1 while disabled.
     */
    int addNode(std::string name, SpanCategory cat, Time begin, Time end,
                std::vector<int> deps = {}, int chip = -1);

    /** Attach fluid flow info to an existing node. */
    void setNodeResource(int node, const FlowEndInfo &info);

    const std::vector<SpanNode> &nodes() const { return nodes_; }

    // --- TaskGraph integration -----------------------------------
    // The TaskGraph allocates one scope per task; while a task body
    // runs synchronously the scope is "ambient", so an op started
    // inside captures it in its `SpanContext` and later registers its
    // final nodes as the task's exits. A task that records no nodes
    // forwards its entry deps as exits, keeping cross-task edges
    // transitive.

    /** Allocate a task scope depending on earlier scopes. */
    int newTask(const std::vector<int> &dep_tasks);
    /** Push/pop the ambient task around the synchronous task body. */
    void beginTask(int task);
    void endTask();
    /** Task completed: forward entry deps if it recorded no exits. */
    void finishTask(int task);

    // --- recovery scopes -----------------------------------------

    /** Open a recovery scope rooted at @p dep_node (an abort marker);
     *  nodes recorded while open become `kRecovery` detours. */
    void beginRecovery(int dep_node);
    void endRecovery();

  private:
    // The ambient-scope protocol below is read and extended only by
    // `SpanContext`, so every op captures and finishes the same way.
    friend class SpanContext;

    /** Ambient task scope, or -1 outside any task body. */
    int currentTask() const;
    /** Entry deps of @p task: union of its dep tasks' exit nodes. */
    std::vector<int> taskDeps(int task) const;
    /** Node deps to give a node started right now: the ambient task's
     *  entry deps (empty outside a task). */
    std::vector<int> ambientDeps() const;
    /** Register @p node as an exit of @p task (-1 task ignored). */
    void addTaskExit(int task, int node);

    /**
     * Push a completion-chain scope: while open, `ambientDeps()`
     * returns @p deps and `currentTask()` returns @p task, so a
     * follow-on op constructed inside an op's `done` callback (outside
     * any task body) still depends on that op's final nodes.
     */
    void beginChain(int task, std::vector<int> deps);
    void endChain();

    bool inRecovery() const { return recoveryDepth_ > 0; }
    int recoveryDep() const { return recoveryDep_; }

    struct TaskScope
    {
        std::vector<int> depTasks;
        std::vector<int> exits;
    };

    /** One ambient frame: a task body or a completion chain. */
    struct Scope
    {
        int task = -1;
        bool hasDeps = false;    ///< chain scope with explicit deps
        std::vector<int> deps;
    };

    std::atomic<bool> enabled_{false};
    std::vector<SpanNode> nodes_;
    std::vector<TaskScope> tasks_;
    std::vector<Scope> ambient_; ///< stack of active scopes
    int recoveryDepth_ = 0;
    int recoveryDep_ = -1;
};

/**
 * The span-graph context of one simulated op. Every op (a collective,
 * a GeMM flow, a get, a re-shard, a pipeline task) captures one
 * synchronously when it starts, because it records its nodes later
 * from event callbacks, after the task body or recovery scope that
 * started it has returned. It holds the ambient task, the entry deps
 * (the ambient task's or chain's deps, plus the recovery root once)
 * and whether the op started inside a recovery scope, in which case
 * every node it records is a `kRecovery` detour.
 *
 * A context captured while the recorder is off costs one relaxed
 * atomic load, allocates nothing, and records nothing; `finish` and
 * `recover` then just run their continuation.
 */
class SpanContext
{
  public:
    /** A disabled context. */
    SpanContext() = default;
    /** Capture @p rec's ambient task, deps and recovery scope now. */
    explicit SpanContext(SpanRecorder &rec);

    bool enabled() const { return rec_ != nullptr; }
    /** Deps of the op's first node. */
    const std::vector<int> &deps() const { return deps_; }

    /**
     * Append a node (see `SpanRecorder::addNode`), as `kRecovery` if
     * the op started in a recovery scope, and attach @p flow's
     * binding and floors when it is valid. -1 while disabled.
     */
    int record(std::string name, SpanCategory cat, Time begin, Time end,
               std::vector<int> deps, int chip,
               const FlowEndInfo &flow = FlowEndInfo{}) const;

    /**
     * The op is done: register @p exits as its task's exits, then run
     * @p fn inside a chain scope on them, so a follow-on op started in
     * @p fn depends on this op's final nodes. With no exits (or
     * disabled) @p fn runs bare.
     */
    template <class Fn>
    void
    finish(std::vector<int> exits, Fn &&fn) const
    {
        if (!enabled() || exits.empty()) {
            fn();
            return;
        }
        for (int node : exits)
            rec_->addTaskExit(task_, node);
        rec_->beginChain(task_, std::move(exits));
        fn();
        rec_->endChain();
    }

    /** `finish` with one exit node (-1: none, as while disabled). */
    template <class Fn>
    void
    finish(int exit, Fn &&fn) const
    {
        if (exit < 0)
            fn();
        else
            finish(std::vector<int>{exit}, std::forward<Fn>(fn));
    }

    /** Run @p fn inside a chain scope on @p node (-1: bare) without
     *  registering exits: the sub-ops @p fn starts register their own. */
    template <class Fn>
    void
    chain(int node, Fn &&fn) const
    {
        if (!enabled() || node < 0) {
            fn();
            return;
        }
        rec_->beginChain(task_, {node});
        fn();
        rec_->endChain();
    }

    /**
     * Run the op's failure continuation @p fn inside its task scope
     * and a recovery scope rooted at @p abort_node, so the retry op
     * @p fn starts inherits both: its exits land where this op's would
     * have, and its nodes are detours depending on the abort marker.
     */
    template <class Fn>
    void
    recover(int abort_node, Fn &&fn) const
    {
        if (!enabled()) {
            fn();
            return;
        }
        if (task_ >= 0)
            rec_->beginTask(task_);
        rec_->beginRecovery(abort_node);
        fn();
        rec_->endRecovery();
        if (task_ >= 0)
            rec_->endTask();
    }

  private:
    SpanRecorder *rec_ = nullptr; ///< null while disabled
    int task_ = -1;
    bool recovery_ = false;
    std::vector<int> deps_;
};

/** One segment of the extracted critical path. `node` is -1 for idle
 *  gaps (category `kBubble`) between consecutive path nodes. */
struct PathSegment
{
    int node = -1;
    SpanCategory category = SpanCategory::kBubble;
    Time begin = 0.0;
    Time end = 0.0;
};

/** Critical path plus exact per-category attribution. */
struct Attribution
{
    Time spanBegin = 0.0;
    Time spanEnd = 0.0;
    /** Contiguous partition of [spanBegin, spanEnd], in time order. */
    std::vector<PathSegment> segments;
    /** Node ids on the path, in time order (gaps excluded). */
    std::vector<int> pathNodes;
    /** Seconds per category, indexed by SpanCategory. */
    double byCategory[kSpanCategoryCount] = {0, 0, 0, 0, 0, 0, 0};

    double span() const { return spanEnd - spanBegin; }
    /** Sum of per-category seconds (== span() to float tolerance). */
    double total() const;
};

/**
 * Extract the critical path of @p nodes: starting from the node with
 * the latest end (ties: smallest id), walk backwards always following
 * the latest-ending dependency; the walked bodies plus the idle gaps
 * between them partition [min begin, max end] exactly, so the
 * attribution identity `total() == span()` holds by construction.
 * Empty input yields an empty attribution.
 */
Attribution extractCriticalPath(const std::vector<SpanNode> &nodes);

/**
 * Per-node slack: how far node i's finish can slip (downstream offsets
 * preserved) without growing the overall span. Nodes on the critical
 * path report 0. slack(i) = t1 - end(i) for sink nodes, else
 * min over successors s of slack(s) + max(0, begin(s) - end(i)).
 */
std::vector<double> computeSlack(const std::vector<SpanNode> &nodes);

/** Scale factors for what-if replay (1.0 = unchanged hardware). */
struct WhatIfScale
{
    double core = 1.0;
    double hbm = 1.0;
    double link = 1.0;
};

/**
 * Daydream-style replay: re-estimate the span after scaling resource
 * classes by the given factors, without re-simulating. Each node whose
 * binding resource belongs to a scaled class has its duration divided
 * by the factor, clamped below by every class's solo-service floor at
 * its own factor; begin offsets relative to dependencies are
 * preserved. Launch/sync/bubble latencies are treated as fixed.
 * @return the predicted span (max new end - min new begin).
 */
double whatIfReplay(const std::vector<SpanNode> &nodes,
                    const WhatIfScale &scale);

/** A near-critical span in an explain record. */
struct HotSpan
{
    std::string name;
    int chip = -1;
    double duration = 0.0;
    double slack = 0.0;
};

/** Machine-readable "why is this plan slow" record for one run. */
struct ExplainRecord
{
    double span = 0.0; ///< spanEnd - spanBegin of the recorded graph
    /** Critical-path seconds per category (sums to `span`). */
    double byCategory[kSpanCategoryCount] = {0, 0, 0, 0, 0, 0, 0};
    /** Up to 5 longest zero-slack spans (the bottleneck work). */
    std::vector<HotSpan> hotSpans;
    /** Predicted spans under 2x compute / 2x link bandwidth. */
    double whatifCompute2x = 0.0;
    double whatifLink2x = 0.0;
    int nodeCount = 0;
    /** |sum of categories - span|: the attribution identity residual. */
    double attributionError = 0.0;

    double categoryShare(SpanCategory cat) const;
};

/** Run extraction + slack + what-if on @p nodes. */
ExplainRecord explainGraph(const std::vector<SpanNode> &nodes);

/** Pseudo-pid of the `critical_path` track in Chrome traces. */
constexpr int kCriticalPathPid = 1000000;

/**
 * Highlight @p attr in a Chrome trace: a `critical_path` pseudo-
 * process with one span per path segment (named by category), plus
 * flow arrows chaining consecutive path nodes so Perfetto draws the
 * path across the per-chip lanes. No-op if @p trace is disabled.
 */
void annotateCriticalPath(TraceRecorder &trace,
                          const std::vector<SpanNode> &nodes,
                          const Attribution &attr);

} // namespace meshslice

#endif // MESHSLICE_SIM_CRITICAL_PATH_HPP_
