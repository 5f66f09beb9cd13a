/**
 * @file
 * Host-speed reference for the end-to-end timings.
 *
 * The benchmark runs on shared hosts whose speed drifts by tens of
 * percent over minutes (contended physical cores, hypervisor steal).
 * The reference is a fixed piece of work that imitates the
 * simulator's hot path -- an event heap, a set-associative tag array,
 * a hash-map directory and scattered loads over a 64 MiB working set,
 * larger than a last-level cache -- without calling the simulator. It is
 * timed beside every repetition, and run.py scales each repetition's
 * time by (ReferenceSeconds / the reference's measured time), so a
 * slow phase of the host divides out while a change to the simulator
 * does not move the reference.
 *
 * The reference must never change: its figures are the unit the
 * benchmark's host-time metrics are expressed in.
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

namespace perfbench
{

/**
 * Nominal seconds of one reference pass, close to one pass on the
 * 4-vCPU x86-64 VM (GCC 12, Release) the benchmark was tuned on.
 * Normalized times are in these units.
 */
constexpr double ReferenceSeconds = 0.25;

/** One timed reference pass. */
struct ReferenceTiming
{
    double wall = 0; //!< seconds until every thread finished
    double cpu = 0;  //!< user+sys seconds of all threads
};

/**
 * Run the reference on @p threads threads at once, each doing one
 * pass's work, so a workload that keeps that many threads busy is
 * compared with a reference that does the same.
 */
ReferenceTiming runReference(unsigned threads);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HH
