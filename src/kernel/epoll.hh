/**
 * @file
 * Level-triggered epoll for the simulated kernel.
 *
 * Semantics follow Linux closely enough for the workloads here:
 *  - interest list of (fd, File) pairs, level-triggered readability;
 *  - a ready set (Linux's rdllist) that readiness edges fill: epoll_wait
 *    scans only the ready set, so it costs O(ready fds), not O(watched
 *    fds), and returns immediately if anything is ready, else blocks
 *    until a readiness edge or timeout;
 *  - multiple concurrent waiters are woken one-per-edge in FIFO order
 *    (EPOLLEXCLUSIVE-style, which is what multi-threaded servers want).
 */

#ifndef REQOBS_KERNEL_EPOLL_HH
#define REQOBS_KERNEL_EPOLL_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "kernel/file.hh"
#include "kernel/types.hh"

namespace reqobs::kernel {

/** One epoll instance (what epoll_create1 returns an fd for). */
class EpollInstance : public File, public ReadinessObserver
{
  public:
    ~EpollInstance() override;

    /** @name Interest list (epoll_ctl). @{ */
    void add(Fd fd, const std::shared_ptr<File> &file);
    void remove(Fd fd);
    /** @} */

    /** Ready fds right now, capped at @p max_events, round-robin fair. */
    std::vector<ReadyFd> collectReady(std::size_t max_events);

    /** Any watched fd readable? (Makes epoll fds themselves pollable.) */
    bool readable() const override;

    /** Readiness edge from a watched file. */
    void onReadable(Fd fd) override;

    /**
     * Blocked-waiter registry. The wake callback runs at most once, when
     * a readiness edge arrives; the caller must then re-scan (level
     * semantics) and re-register if it finds nothing.
     */
    using WaiterId = std::uint64_t;
    WaiterId addWaiter(std::function<void()> wake);
    void removeWaiter(WaiterId id);
    std::size_t waiterCount() const { return waiters_.size(); }

  private:
    /** Watched files, indexed by fd (null = not watched). */
    std::vector<std::shared_ptr<File>> interest_;
    /**
     * Ready set: a bitmap over fds, one bit per candidate. Invariant:
     * every readable watched fd is a candidate (edges insert, add()
     * inserts an already-readable file, remove() erases). Candidates
     * that went unreadable are erased lazily by collectReady, so the
     * set is a superset of the readable fds, never a subset.
     */
    std::vector<std::uint64_t> ready_;
    /** Rotates so collectReady doesn't always favour low fds. */
    Fd scanCursor_ = 0;

    static constexpr Fd kNoFd = std::numeric_limits<Fd>::max();

    /** Smallest candidate >= @p from, or kNoFd. */
    Fd nextCandidate(Fd from) const;
    /**
     * Collect readable candidates in [lo, hi), dropping unreadable ones;
     * false once @p out is full.
     */
    bool scanReady(Fd lo, Fd hi, std::size_t max_events,
                   std::vector<ReadyFd> &out);

    struct Waiter
    {
        WaiterId id;
        std::function<void()> wake;
    };
    std::deque<Waiter> waiters_;
    WaiterId nextWaiter_ = 1;
};

} // namespace reqobs::kernel

#endif // REQOBS_KERNEL_EPOLL_HH
