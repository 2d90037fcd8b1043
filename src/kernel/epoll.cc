#include "kernel/epoll.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace reqobs::kernel {

EpollInstance::~EpollInstance()
{
    for (const auto &file : interest_) {
        if (file)
            file->removeObserver(this);
    }
}

void
EpollInstance::add(Fd fd, const std::shared_ptr<File> &file)
{
    if (!file)
        sim::panic("EpollInstance::add: null file");
    if (fd < 0)
        sim::fatal("EpollInstance::add: negative fd %d", fd);
    const auto slot = static_cast<std::size_t>(fd);
    if (slot >= interest_.size()) {
        interest_.resize(slot + 1);
        ready_.resize(slot / 64 + 1);
    }
    if (interest_[slot])
        sim::fatal("EpollInstance::add: fd %d already registered", fd);
    interest_[slot] = file;
    file->addObserver(this, fd);
    if (file->readable())
        onReadable(fd);
}

void
EpollInstance::remove(Fd fd)
{
    if (fd < 0 || static_cast<std::size_t>(fd) >= interest_.size() ||
        !interest_[fd])
        return;
    interest_[fd]->removeObserver(this);
    interest_[fd].reset();
    ready_[fd / 64] &= ~(std::uint64_t{1} << (fd % 64));
}

Fd
EpollInstance::nextCandidate(Fd from) const
{
    std::size_t word = static_cast<std::size_t>(from) / 64;
    if (word >= ready_.size())
        return kNoFd;
    std::uint64_t bits = ready_[word] & (~std::uint64_t{0} << (from % 64));
    while (bits == 0) {
        if (++word == ready_.size())
            return kNoFd;
        bits = ready_[word];
    }
    return static_cast<Fd>(word * 64 + std::countr_zero(bits));
}

bool
EpollInstance::scanReady(Fd lo, Fd hi, std::size_t max_events,
                         std::vector<ReadyFd> &out)
{
    for (Fd fd = nextCandidate(lo); fd < hi; fd = nextCandidate(fd + 1)) {
        const File &file = *interest_[fd];
        if (!file.readable()) {
            ready_[fd / 64] &= ~(std::uint64_t{1} << (fd % 64));
            continue;
        }
        out.push_back(ReadyFd{fd, true, file.writable()});
        scanCursor_ = fd;
        if (out.size() >= max_events)
            return false;
    }
    return true;
}

std::vector<ReadyFd>
EpollInstance::collectReady(std::size_t max_events)
{
    std::vector<ReadyFd> out;
    if (max_events == 0)
        return out;
    // Round-robin fairness across fds: candidates above the cursor
    // first, then from the bottom up to it. That is the cyclic order a
    // full interest-list scan starting after the cursor would visit,
    // and the ready set holds every readable fd, so the result is the
    // same as that scan's.
    const Fd cursor = scanCursor_;
    const auto end = static_cast<Fd>(interest_.size());
    if (scanReady(cursor + 1, end, max_events, out))
        scanReady(0, std::min(cursor + 1, end), max_events, out);
    return out;
}

bool
EpollInstance::readable() const
{
    for (Fd fd = nextCandidate(0); fd != kNoFd; fd = nextCandidate(fd + 1)) {
        if (interest_[fd]->readable())
            return true;
    }
    return false;
}

void
EpollInstance::onReadable(Fd fd)
{
    // Queue the fd on the ready set (a registration removed mid-notify
    // may still deliver one edge from the notifier's snapshot).
    if (static_cast<std::size_t>(fd) < interest_.size() && interest_[fd])
        ready_[fd / 64] |= std::uint64_t{1} << (fd % 64);
    // Propagate to anything polling this epoll fd itself.
    signalReadable();
    // Wake exactly one blocked waiter per edge.
    if (!waiters_.empty()) {
        auto waiter = std::move(waiters_.front());
        waiters_.pop_front();
        waiter.wake();
    }
}

EpollInstance::WaiterId
EpollInstance::addWaiter(std::function<void()> wake)
{
    const WaiterId id = nextWaiter_++;
    waiters_.push_back(Waiter{id, std::move(wake)});
    return id;
}

void
EpollInstance::removeWaiter(WaiterId id)
{
    waiters_.erase(std::remove_if(waiters_.begin(), waiters_.end(),
                                  [id](const Waiter &w) {
                                      return w.id == id;
                                  }),
                   waiters_.end());
}

} // namespace reqobs::kernel
