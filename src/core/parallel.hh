/**
 * @file
 * Process-wide worker pool shared by every parallel harness.
 *
 * Both batch harnesses — runExperimentsParallel's and
 * runClusterExperimentsParallel's independent-run fan-out — draw their
 * threads from the single persistent pool defined here, so the process
 * observes one thread budget (REQOBS_JOBS). Nested parallel calls need
 * no care from the caller: poolRun itself runs a batch issued from a
 * pool thread serial-inline instead of deadlocking on the pool's single
 * batch slot.
 */

#ifndef REQOBS_CORE_PARALLEL_HH
#define REQOBS_CORE_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace reqobs::core {

/**
 * Worker-count resolution shared by all parallel entry points:
 * @p requested if nonzero, else REQOBS_JOBS from the environment, else
 * hardware concurrency (1 when the runtime reports 0 cores) — clamped to
 * [1, @p jobs]. Benches record resolveWorkerCount(0, jobs) as the
 * effective parallelism next to their timings.
 */
unsigned resolveWorkerCount(unsigned requested, std::size_t jobs);

/**
 * Run fn(0) .. fn(jobs-1) across @p workers threads (the calling thread
 * included) on the persistent pool and return once every index has
 * completed. Indices are claimed from a shared atomic counter, so any
 * thread may run any index; callers must make fn(i) independent of
 * execution order. With @p workers <= 1, or when the caller is itself
 * a pool worker (a nested batch would deadlock the pool's single batch
 * slot), the batch runs on the calling thread in index order. The
 * pool's batch hand-off (mutex + condition variable) establishes
 * happens-before between everything written by the workers during the
 * batch and the caller after return.
 */
void poolRun(std::size_t jobs, unsigned workers,
             const std::function<void(std::size_t)> &fn);

} // namespace reqobs::core

#endif // REQOBS_CORE_PARALLEL_HH
