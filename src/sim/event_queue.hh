/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * Events are callbacks scheduled at absolute ticks. Ties are broken by
 * insertion order so execution is fully deterministic. Events can be
 * cancelled through the EventId handle returned at scheduling time
 * (used heavily by timeouts: epoll timeouts, TCP retransmission timers).
 *
 * Storage is allocation-free per event: event states live in a pooled
 * slab (a chunked deque recycled through a free list) and callbacks are
 * stored inline in a fixed-size buffer instead of a heap-backed
 * std::function. The heap is a hand-written binary heap of 16-byte
 * packed keys, (tick << 64 | seq << 24 | slot), compared as one
 * unsigned 128-bit integer. The seed design paid two heap allocations
 * per event (shared_ptr<State> + std::function); a sweep schedules tens
 * of millions, which made the allocator the simulator's hottest path.
 *
 * A running event may re-arm itself (rearmCurrent) instead of
 * scheduling a successor: its entry stays at the heap root while the
 * callback runs and gets its new key with one sift-down when the
 * callback returns, and its slot keeps the callback. Periodic timers
 * (CPU quanta, the GPS completion) re-arm this way on every firing.
 */

#ifndef REQOBS_SIM_EVENT_QUEUE_HH
#define REQOBS_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hh"

namespace reqobs::sim {

class EventQueue;

/**
 * Non-allocating callback holder for event slab slots. Any callable up
 * to kCapacity bytes is stored inline; larger captures fail to compile
 * (wrap oversized state in a shared_ptr at the call site).
 */
class InlineCallback
{
  public:
    static constexpr std::size_t kCapacity = 96;

    InlineCallback() = default;
    ~InlineCallback() { reset(); }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    template <typename F>
    void
    emplace(F &&fn)
    {
        using Fd = std::decay_t<F>;
        static_assert(sizeof(Fd) <= kCapacity,
                      "event callback captures too much state for the "
                      "inline buffer; capture a shared_ptr instead");
        static_assert(alignof(Fd) <= alignof(std::max_align_t));
        reset();
        ::new (static_cast<void *>(buf_)) Fd(std::forward<F>(fn));
        invoke_ = [](void *p) { (*static_cast<Fd *>(p))(); };
        // Trivially destructible captures (the common [this, ...]
        // lambdas) need no destroy call when the slot is released.
        if constexpr (!std::is_trivially_destructible_v<Fd>)
            destroy_ = [](void *p) { static_cast<Fd *>(p)->~Fd(); };
    }

    void operator()() { invoke_(buf_); }

    void
    reset()
    {
        if (destroy_)
            destroy_(buf_);
        invoke_ = nullptr;
        destroy_ = nullptr;
    }

  private:
    alignas(std::max_align_t) unsigned char buf_[kCapacity];
    void (*invoke_)(void *) = nullptr;
    void (*destroy_)(void *) = nullptr;
};

/**
 * Handle to a scheduled event. Default-constructed handles are inert.
 * Copies refer to the same underlying event: cancelling any copy
 * cancels the event. A handle refers to a (slot, generation) pair, so
 * handles to already-fired events stay harmless after the slot is
 * recycled. Handles must not outlive their EventQueue.
 */
class EventId
{
  public:
    EventId() = default;

    /** True if the handle refers to an event that has not yet fired. */
    bool pending() const;

    /** Cancel the event if still pending; harmless otherwise. */
    void cancel();

    /**
     * True while this event's callback is running, i.e. while it may
     * re-arm itself through EventQueue::rearmCurrent().
     */
    bool running() const;

  private:
    friend class EventQueue;

    EventId(EventQueue *queue, std::uint32_t slot, std::uint32_t gen)
        : queue_(queue), slot_(slot), gen_(gen)
    {}

    EventQueue *queue_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
};

/**
 * Min-heap of events ordered by (tick, insertion sequence).
 *
 * The queue does not own a clock; Simulation advances time to the tick of
 * each popped event. popAndRun() never runs an event scheduled in the past
 * relative to the previously popped one (monotonic time is an invariant).
 *
 * Callbacks must not run the queue themselves (no nested popAndRun) and
 * must not ask it for nextTick()/empty(): while a callback runs, its own
 * entry still sits at the heap root.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Schedule @p fn at absolute tick @p when. @pre when >= lastPopped. */
    template <typename Fn>
    EventId
    schedule(Tick when, Fn &&fn)
    {
        const std::uint32_t slot = prepare(when);
        State &st = slab_[slot];
        st.cb.emplace(std::forward<Fn>(fn));
        return EventId(this, slot, st.gen);
    }

    /**
     * Re-arm the event whose callback is running now at absolute tick
     * @p when, as if it were cancelled and scheduled afresh with the
     * same callback: the insertion sequence is taken at this call, and
     * handles to the fired incarnation go inert. May be called more
     * than once per run (the last call wins); cancelling the returned
     * handle before the callback returns drops the event.
     * @pre a callback is running and when >= its tick.
     */
    EventId rearmCurrent(Tick when);

    /** Tick of the earliest pending event, or kTickMax if none. */
    Tick nextTick() const;

    /** True if no live (non-cancelled) events remain. */
    bool empty() const;

    /**
     * Number of queued entries. Upper bound on live events: entries
     * cancelled while buried in the heap are still counted until popped,
     * and a running event's own entry is counted until its callback
     * returns.
     */
    std::size_t size() const { return heap_.size(); }

    /**
     * Pop the earliest event and run it.
     * @param[out] now Set to the event's tick before the callback runs.
     * @return false if the queue was empty.
     */
    bool popAndRun(Tick &now) { return popAndRunUntil(kTickMax, now); }

    /**
     * Pop the earliest event and run it if its tick is <= @p deadline.
     * @param[out] now Set to the event's tick before the callback runs.
     * @return false if no live event is due by @p deadline.
     */
    bool popAndRunUntil(Tick deadline, Tick &now);

    /** Total events executed so far (for stats/debugging). */
    std::uint64_t executedCount() const { return executed_; }

    /** Slab slots currently held (live + free); capacity diagnostics. */
    std::size_t slabSize() const { return slab_.size(); }

  private:
    friend class EventId;

    /** One pooled event state. Addresses are stable (deque chunks). */
    struct State
    {
        std::uint32_t gen = 0;
        bool cancelled = false;
        bool fired = false;
        InlineCallback cb;
    };

    /**
     * What the heap orders: tick << 64 | seq << kSlotBits | slot. Keys
     * are unique (seq is), so comparing them as integers is exactly
     * the (tick, seq) order.
     */
    using Key = unsigned __int128;
    static constexpr unsigned kSlotBits = 24;
    static constexpr unsigned kSeqBits = 64 - kSlotBits;
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    std::deque<State> slab_;
    std::vector<std::uint32_t> free_;
    std::vector<Key> heap_; ///< binary min-heap; heap_[0] is the root
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    Tick lastPopped_ = 0;
    /** Slot whose callback is running (it is the heap root), or none. */
    std::uint32_t running_ = kNoSlot;
    /** The running event's next key once rearmCurrent() was called. */
    Key rearmKey_ = 0;

    static Tick keyWhen(Key k) { return static_cast<Tick>(k >> 64); }

    static std::uint32_t
    keySlot(Key k)
    {
        return static_cast<std::uint32_t>(k) & ((1u << kSlotBits) - 1);
    }

    /** Pack (when, next seq, slot); panics when seq overflows its bits. */
    Key makeKey(Tick when, std::uint32_t slot);

    /** Validate @p when, claim a slot, push the heap entry. */
    std::uint32_t prepare(Tick when);

    /** Return a popped/skipped slot to the free list (bumps gen). */
    void release(std::uint32_t slot);

    /** Drop cancelled entries from the top of the heap. */
    void skipCancelled();

    void push(Key key);
    /** Remove the root. */
    void popRoot();
    /** Place @p key at hole @p i and restore the heap below it. */
    void siftDown(std::size_t i, Key key);

    bool slotPending(std::uint32_t slot, std::uint32_t gen) const;
    bool slotRunning(std::uint32_t slot, std::uint32_t gen) const;
    void cancelSlot(std::uint32_t slot, std::uint32_t gen);
};

} // namespace reqobs::sim

#endif // REQOBS_SIM_EVENT_QUEUE_HH
