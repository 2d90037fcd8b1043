#include "kernel/cpu.hh"

#include <algorithm>
#include <cmath>

#include "fault/fault.hh"
#include "sim/logging.hh"

namespace reqobs::kernel {

namespace {

/** Work below this many ticks counts as finished (float slack). */
constexpr double kEpsilon = 1e-3;

} // namespace

CpuModel::CpuModel(sim::Simulation &sim, const CpuConfig &config)
    : sim_(sim), config_(config), rng_(sim.forkRng())
{
    if (config.cores == 0)
        sim::fatal("CpuModel: need at least one core");
    if (config.speed <= 0.0)
        sim::fatal("CpuModel: speed must be positive");
    if (config_.sched == SchedModel::Discrete) {
        if (config_.quantum <= 0)
            sim::fatal("CpuModel: discrete dispatch needs a positive "
                       "quantum");
        cores_.resize(config_.cores);
    }
    lastAdvance_ = sim.now();
}

double
CpuModel::jitterFactor(std::size_t active_after)
{
    // Contention jitter: inflate demand when the machine is
    // oversubscribed. Draws from rng_ only when the knob is live, so a
    // jitter-free run never consumes the stream.
    const double n = static_cast<double>(active_after);
    const double overload =
        std::clamp(n / static_cast<double>(config_.cores) - 1.0, 0.0,
                   config_.jitterCap);
    double factor = 1.0;
    if (overload > 0.0 && config_.jitterSigma > 0.0) {
        const double sigma = config_.jitterSigma * overload;
        factor = std::exp(sigma * rng_.normal());
    }
    return factor;
}

void
CpuModel::emitSched(const SchedEvent &ev)
{
    if (hook_)
        hook_(ev);
}

std::size_t
CpuModel::activeJobs() const
{
    if (config_.sched == SchedModel::Gps)
        return jobs_.size();
    return activeTasks_;
}

CpuModel::JobId
CpuModel::submit(sim::Tick demand, std::function<void()> on_done)
{
    return submit(demand, TaskRef{}, std::move(on_done));
}

CpuModel::JobId
CpuModel::submit(sim::Tick demand, const TaskRef &task,
                 std::function<void()> on_done)
{
    if (demand < 0)
        sim::panic("CpuModel::submit: negative demand");
    if (config_.sched == SchedModel::Gps)
        return submitGps(demand, std::move(on_done));
    return submitDiscrete(demand, task, std::move(on_done));
}

void
CpuModel::cancel(JobId id)
{
    if (config_.sched == SchedModel::Gps) {
        advance();
        const auto it =
            std::find_if(jobs_.begin(), jobs_.end(),
                         [id](const Job &j) { return j.id == id; });
        if (it != jobs_.end()) {
            jobs_.erase(it);
            reschedule();
        }
        return;
    }
    for (unsigned c = 0; c < cores_.size(); ++c) {
        Core &core = cores_[c];
        if (core.busy && !core.dispatching && core.run.id == id) {
            advanceCore(core);
            core.slice.cancel();
            const std::uint32_t prev = core.run.tid;
            core.busy = false;
            core.run.onDone = nullptr;
            --activeTasks_;
            dispatch(c, prev, /*prev_runnable=*/false);
            return;
        }
        for (auto it = core.queue.begin(); it != core.queue.end(); ++it) {
            if (it->id == id) {
                core.queue.erase(it);
                --activeTasks_;
                return;
            }
        }
    }
}

void
CpuModel::setSpeed(double speed)
{
    if (speed <= 0.0)
        sim::fatal("CpuModel::setSpeed: speed must be positive");
    if (config_.sched == SchedModel::Gps) {
        advance();
        config_.speed = speed;
        reschedule();
        return;
    }
    // Bank progress at the old speed, then re-plan every running slice.
    for (Core &core : cores_)
        advanceCore(core);
    config_.speed = speed;
    for (unsigned c = 0; c < cores_.size(); ++c) {
        Core &core = cores_[c];
        if (core.busy && !core.dispatching) {
            core.slice.cancel();
            startSlice(c);
        }
    }
}

double
CpuModel::servedTicks() const
{
    return served_;
}

// --- GPS engine (legacy fluid sharing; bit-exact with the original) ---

double
CpuModel::currentRate() const
{
    if (jobs_.empty())
        return 0.0;
    const double n = static_cast<double>(jobs_.size());
    const double c = static_cast<double>(config_.cores);
    return config_.speed * std::min(1.0, c / n);
}

void
CpuModel::advance()
{
    const sim::Tick now = sim_.now();
    if (now == lastAdvance_)
        return;
    const double rate = currentRate();
    const double elapsed = static_cast<double>(now - lastAdvance_);
    if (rate > 0.0) {
        const double work = elapsed * rate;
        for (Job &job : jobs_)
            job.remaining -= work;
        served_ += work * static_cast<double>(jobs_.size());
    }
    lastAdvance_ = now;
}

CpuModel::JobId
CpuModel::submitGps(sim::Tick demand, std::function<void()> on_done)
{
    advance();
    const double factor = jitterFactor(jobs_.size() + 1);

    const JobId id = nextId_++;
    Job job;
    job.id = id;
    job.remaining = std::max(1.0, static_cast<double>(demand) * factor);
    job.onDone = std::move(on_done);
    jobs_.push_back(std::move(job));
    reschedule();
    return id;
}

void
CpuModel::reschedule()
{
    completionEvent_.cancel();
    if (jobs_.empty())
        return;
    double min_remaining = jobs_.front().remaining;
    for (const Job &job : jobs_)
        min_remaining = std::min(min_remaining, job.remaining);
    const double rate = currentRate();
    const double dt = std::max(0.0, min_remaining) / rate;
    const sim::Tick delay =
        static_cast<sim::Tick>(std::ceil(std::max(0.0, dt)));
    // Inside onCompletion the fired completion event re-arms in place.
    if (completionEvent_.running())
        completionEvent_ = sim_.rearmCurrent(delay);
    else
        completionEvent_ = sim_.schedule(delay, [this] { onCompletion(); });
}

void
CpuModel::onCompletion()
{
    advance();
    std::vector<std::function<void()>> done;
    std::size_t w = 0;
    for (std::size_t r = 0; r < jobs_.size(); ++r) {
        if (jobs_[r].remaining <= kEpsilon) {
            done.push_back(std::move(jobs_[r].onDone));
        } else {
            if (w != r)
                jobs_[w] = std::move(jobs_[r]);
            ++w;
        }
    }
    jobs_.resize(w);
    completed_ += done.size();
    reschedule();
    // Run callbacks after rescheduling: they commonly submit new jobs.
    for (auto &fn : done)
        fn();
}

// --- Discrete engine (per-core run queues + quantum dispatch) ---

CpuModel::JobId
CpuModel::submitDiscrete(sim::Tick demand, const TaskRef &task,
                         std::function<void()> on_done)
{
    const double factor = jitterFactor(activeJobs() + 1);

    const JobId id = nextId_++;
    Task t;
    t.id = id;
    t.tid = task.tid;
    t.pidTgid = task.pidTgid;
    t.remaining = std::max(1.0, static_cast<double>(demand) * factor);
    t.onDone = std::move(on_done);

    // Wakeup fires before any switch-in so a runqlat probe stamps the
    // wait start first; an immediate dispatch then measures zero wait.
    const auto pos =
        std::lower_bound(seenTids_.begin(), seenTids_.end(), task.tid);
    const bool seen = pos != seenTids_.end() && *pos == task.tid;
    if (!seen)
        seenTids_.insert(pos, task.tid);
    SchedEvent wake;
    wake.type =
        seen ? SchedEventType::Wakeup : SchedEventType::WakeupNew;
    wake.tid = task.tid;
    wake.pidTgid = task.pidTgid;
    emitSched(wake);

    const unsigned c = nextCore_;
    nextCore_ = (nextCore_ + 1) % static_cast<unsigned>(cores_.size());
    Core &core = cores_[c];
    core.queue.push_back(std::move(t));
    ++activeTasks_;
    if (!core.busy)
        dispatch(c, /*prev_tid=*/0, /*prev_runnable=*/false);
    return id;
}

void
CpuModel::advanceCore(Core &core)
{
    if (!core.busy || core.dispatching)
        return;
    const sim::Tick now = sim_.now();
    if (now == core.sliceStart)
        return;
    const double elapsed = static_cast<double>(now - core.sliceStart);
    const double work =
        std::min(elapsed * config_.speed, core.run.remaining);
    core.run.remaining -= work;
    served_ += work;
    core.sliceStart = now;
}

void
CpuModel::dispatch(unsigned c, std::uint32_t prev_tid, bool prev_runnable)
{
    Core &core = cores_[c];
    if (core.queue.empty()) {
        // Going idle is not a switch-in: no injected sched delay.
        core.busy = false;
        SchedEvent ev;
        ev.type = SchedEventType::Switch;
        ev.prevTid = prev_tid;
        ev.prevRunnable = prev_runnable;
        emitSched(ev);
        return;
    }
    sim::Tick delay = 0;
    if (fault_ != nullptr)
        delay = fault_->injectSchedDelay();
    if (delay > 0) {
        // The switch-in itself is late (stolen timeslice / softirq
        // storm): the core is reserved but nothing runs yet. Nothing
        // cancels the delayed switch-in, and core.slice only ever names
        // a slice event, so startSlice never re-arms this one.
        core.busy = true;
        core.dispatching = true;
        core.slice = {};
        sim_.schedule(delay, [this, c, prev_tid, prev_runnable] {
            cores_[c].dispatching = false;
            switchIn(c, prev_tid, prev_runnable);
        });
        return;
    }
    switchIn(c, prev_tid, prev_runnable);
}

void
CpuModel::switchIn(unsigned c, std::uint32_t prev_tid, bool prev_runnable)
{
    Core &core = cores_[c];
    if (core.queue.empty()) {
        // Every waiter was cancelled while the switch-in was delayed.
        core.busy = false;
        SchedEvent ev;
        ev.type = SchedEventType::Switch;
        ev.prevTid = prev_tid;
        ev.prevRunnable = prev_runnable;
        emitSched(ev);
        return;
    }
    core.run = std::move(core.queue.front());
    core.queue.pop_front();
    core.busy = true;
    ++dispatches_;
    SchedEvent ev;
    ev.type = SchedEventType::Switch;
    ev.prevTid = prev_tid;
    ev.prevRunnable = prev_runnable;
    ev.tid = core.run.tid;
    ev.pidTgid = core.run.pidTgid;
    emitSched(ev);
    startSlice(c);
}

void
CpuModel::startSlice(unsigned c)
{
    Core &core = cores_[c];
    core.sliceStart = sim_.now();
    const double ttf = core.run.remaining / config_.speed;
    const double dt =
        std::min(ttf, static_cast<double>(config_.quantum));
    const sim::Tick delay =
        std::max<sim::Tick>(1, static_cast<sim::Tick>(std::ceil(dt)));
    // Inside this core's own slice event (continue, preempt-then-next,
    // complete-then-next) the fired event re-arms in place.
    if (core.slice.running())
        core.slice = sim_.rearmCurrent(delay);
    else
        core.slice = sim_.schedule(delay, [this, c] { onSlice(c); });
}

void
CpuModel::onSlice(unsigned c)
{
    Core &core = cores_[c];
    advanceCore(core);
    if (core.run.remaining <= kEpsilon) {
        ++completed_;
        --activeTasks_;
        auto cb = std::move(core.run.onDone);
        const std::uint32_t prev = core.run.tid;
        core.busy = false;
        // Dispatch the next waiter before the callback runs: callbacks
        // commonly submit new jobs (mirrors the GPS reschedule-first
        // contract).
        dispatch(c, prev, /*prev_runnable=*/false);
        if (cb)
            cb();
        return;
    }
    if (!core.queue.empty()) {
        // Quantum expiry with waiters: preempt, requeue at the tail.
        ++preemptions_;
        Task prev_task = std::move(core.run);
        const std::uint32_t prev = prev_task.tid;
        core.busy = false;
        core.queue.push_back(std::move(prev_task));
        dispatch(c, prev, /*prev_runnable=*/true);
        return;
    }
    // Alone on the core: keep running, no event traffic.
    startSlice(c);
}

} // namespace reqobs::kernel
