/**
 * @file
 * A tiny dependency graph of asynchronous simulation tasks.
 *
 * Timing executors describe a software-pipelined schedule as tasks
 * ("all-rows partial AllGather of slice s", "all-chips partial GeMM of
 * slice s") with dependencies; the graph starts every task as soon as
 * its dependencies complete, which is exactly how overlap emerges in
 * MeshSlice's pipelines (Fig 4).
 */
#ifndef MESHSLICE_CORE_TASKGRAPH_HPP_
#define MESHSLICE_CORE_TASKGRAPH_HPP_

#include <functional>
#include <vector>

#include "sim/critical_path.hpp"
#include "sim/simulator.hpp"

namespace meshslice {

/**
 * Build with `addTask`, then `start`. Tasks receive a completion
 * callback they must invoke exactly once (possibly asynchronously).
 * The graph object must outlive the simulation run.
 *
 * When a `SpanRecorder` is attached, each task gets a profiler scope:
 * the synchronous part of the task body runs with that scope ambient,
 * so operations started inside register their span nodes as the
 * task's exits, and nodes started by dependent tasks inherit those
 * exits as causal deps — the TaskGraph edges become span-graph edges.
 */
class TaskGraph
{
  public:
    /** A task body: do work, then call `done()`. */
    using TaskFn = std::function<void(std::function<void()> done)>;

    explicit TaskGraph(Simulator &sim, SpanRecorder *prof = nullptr)
        : sim_(sim), prof_(prof && prof->enabled() ? prof : nullptr)
    {}

    /** The attached profiler, or nullptr (also when disabled). */
    SpanRecorder *profiler() const { return prof_; }

    /**
     * Add a task depending on previously added tasks.
     * @return the task id, usable as a dependency of later tasks.
     */
    int addTask(TaskFn fn, std::vector<int> deps = {});

    /** Begin execution; @p all_done fires when every task completed. */
    void start(std::function<void()> all_done);

    /**
     * Start, drain the simulator, and return the simulated time from
     * the start to the graph's completion, not to the end of the
     * drain: a fault window whose end boundary outlives the graph, or
     * a death watch armed past it, must not inflate the time. A stop
     * requested mid-graph (the elastic runtime's fail-stop handler)
     * abandons the graph: the time runs to the stop and @p stopped,
     * when non-null, is set. Any other undrained graph panics with
     * "<who>: schedule did not drain".
     */
    Time run(const char *who, bool *stopped = nullptr);

  private:
    struct Task
    {
        TaskFn fn;
        std::vector<int> dependents;
        int blockers = 0;
        bool launched = false;
        bool completed = false;
        int profId = -1; ///< SpanRecorder task scope
    };

    void launchTask(int id);
    void completeTask(int id);

    Simulator &sim_;
    SpanRecorder *prof_ = nullptr;
    std::vector<Task> tasks_;
    std::function<void()> allDone_;
    int remaining_ = 0;
    bool started_ = false;
};

} // namespace meshslice

#endif // MESHSLICE_CORE_TASKGRAPH_HPP_
