#include "sim/event_queue.hh"

#include "sim/logging.hh"

namespace reqobs::sim {

bool
EventId::pending() const
{
    return queue_ && queue_->slotPending(slot_, gen_);
}

void
EventId::cancel()
{
    if (queue_)
        queue_->cancelSlot(slot_, gen_);
}

bool
EventId::running() const
{
    return queue_ && queue_->slotRunning(slot_, gen_);
}

EventQueue::Key
EventQueue::makeKey(Tick when, std::uint32_t slot)
{
    if (nextSeq_ >> kSeqBits)
        panic("EventQueue: sequence numbers exhausted (2^%u events)",
              kSeqBits);
    return static_cast<Key>(static_cast<std::uint64_t>(when)) << 64 |
           static_cast<Key>(nextSeq_++ << kSlotBits | slot);
}

std::uint32_t
EventQueue::prepare(Tick when)
{
    if (when < lastPopped_)
        panic("EventQueue: scheduling into the past (%lld < %lld)",
              (long long)when, (long long)lastPopped_);
    std::uint32_t slot;
    if (!free_.empty()) {
        slot = free_.back();
        free_.pop_back();
    } else {
        if (slab_.size() >> kSlotBits)
            panic("EventQueue: more than 2^%u events pending", kSlotBits);
        slot = static_cast<std::uint32_t>(slab_.size());
        slab_.emplace_back();
    }
    State &st = slab_[slot];
    st.cancelled = false;
    st.fired = false;
    push(makeKey(when, slot));
    return slot;
}

EventId
EventQueue::rearmCurrent(Tick when)
{
    if (running_ == kNoSlot)
        panic("EventQueue::rearmCurrent: no event is running");
    if (when < lastPopped_)
        panic("EventQueue: re-arming into the past (%lld < %lld)",
              (long long)when, (long long)lastPopped_);
    State &st = slab_[running_];
    // A fresh incarnation: handles to the fired one go inert, and the
    // key takes its seq now, as a cancel-and-schedule would.
    ++st.gen;
    st.cancelled = false;
    st.fired = false;
    rearmKey_ = makeKey(when, running_);
    return EventId(this, running_, st.gen);
}

void
EventQueue::release(std::uint32_t slot)
{
    State &st = slab_[slot];
    st.cb.reset();
    // Invalidate outstanding handles to this slot before it is reused.
    ++st.gen;
    free_.push_back(slot);
}

void
EventQueue::push(Key key)
{
    std::size_t i = heap_.size();
    heap_.push_back(key);
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (heap_[parent] < key)
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = key;
}

void
EventQueue::siftDown(std::size_t i, Key key)
{
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heap_[child + 1] < heap_[child])
            ++child;
        if (key < heap_[child])
            break;
        heap_[i] = heap_[child];
        i = child;
    }
    heap_[i] = key;
}

void
EventQueue::popRoot()
{
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        siftDown(0, last);
}

void
EventQueue::skipCancelled()
{
    while (!heap_.empty() && slab_[keySlot(heap_.front())].cancelled) {
        release(keySlot(heap_.front()));
        popRoot();
    }
}

Tick
EventQueue::nextTick() const
{
    if (running_ != kNoSlot)
        panic("EventQueue::nextTick called from an event callback");
    // Lazily drop cancelled entries so the reported bound is exact.
    auto *self = const_cast<EventQueue *>(this);
    self->skipCancelled();
    return heap_.empty() ? kTickMax : keyWhen(heap_.front());
}

bool
EventQueue::empty() const
{
    nextTick(); // drops the cancelled entries at the top
    return heap_.empty();
}

bool
EventQueue::popAndRunUntil(Tick deadline, Tick &now)
{
    if (running_ != kNoSlot)
        panic("EventQueue: popAndRun called from an event callback");
    skipCancelled();
    if (heap_.empty())
        return false;
    const Key top = heap_.front();
    const Tick when = keyWhen(top);
    if (when > deadline)
        return false;
    if (when < lastPopped_)
        panic("EventQueue: time went backwards");
    lastPopped_ = when;
    now = when;
    const std::uint32_t slot = keySlot(top);
    State &st = slab_[slot];
    // Marked fired before invocation so a callback cancelling itself
    // through a retained handle is a no-op. The entry stays at the root
    // and the slot stays claimed while the callback runs: every key
    // pushed meanwhile is larger (tick >= when, later seq), and
    // self-rescheduling callbacks never see their own captures
    // destroyed (slab addresses are stable even if the slab grows).
    st.fired = true;
    ++executed_;
    running_ = slot;
    st.cb();
    running_ = kNoSlot;
    if (!st.fired && !st.cancelled) {
        // Re-armed: replace the root's key in place, callback kept.
        siftDown(0, rearmKey_);
    } else {
        popRoot();
        release(slot);
    }
    return true;
}

bool
EventQueue::slotPending(std::uint32_t slot, std::uint32_t gen) const
{
    if (slot >= slab_.size())
        return false;
    const State &st = slab_[slot];
    return st.gen == gen && !st.cancelled && !st.fired;
}

bool
EventQueue::slotRunning(std::uint32_t slot, std::uint32_t gen) const
{
    return slot == running_ && slab_[slot].gen == gen;
}

void
EventQueue::cancelSlot(std::uint32_t slot, std::uint32_t gen)
{
    if (slotPending(slot, gen))
        slab_[slot].cancelled = true;
}

} // namespace reqobs::sim
