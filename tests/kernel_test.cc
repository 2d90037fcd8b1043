/**
 * @file
 * Unit and small integration tests for the simulated kernel: syscall
 * dispatch with tracepoints, epoll/select blocking semantics, socket
 * plumbing, the futex notifier and probe-cost charging.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "kernel/kernel.hh"
#include "kernel/notifier.hh"
#include "kernel/syscalls.hh"
#include "kernel/system_spec.hh"
#include "sim/simulation.hh"

namespace reqobs::kernel {
namespace {

/** Records every tracepoint event for assertions. */
struct EventLog
{
    std::vector<RawSyscallEvent> events;

    void
    attachTo(Kernel &k)
    {
        for (auto point : {TracepointId::SysEnter, TracepointId::SysExit}) {
            k.tracepoints().attach(point,
                                   [this](const RawSyscallEvent &ev) {
                                       events.push_back(ev);
                                       return sim::Tick{0};
                                   });
        }
    }

    std::size_t
    countOf(Syscall s, TracepointId point) const
    {
        std::size_t n = 0;
        for (const auto &ev : events)
            n += ev.syscall == syscallId(s) && ev.point == point;
        return n;
    }
};

struct Harness
{
    sim::Simulation sim{1};
    Kernel kernel{sim};
    EventLog log;

    Harness() { log.attachTo(kernel); }
};

// ------------------------------------------------------------ tracepoints

TEST(TracepointTest, AttachFireDetach)
{
    TracepointRegistry reg;
    int calls = 0;
    const ProbeHandle h =
        reg.attach(TracepointId::SysEnter, [&](const RawSyscallEvent &) {
            ++calls;
            return sim::Tick{7};
        });
    RawSyscallEvent ev;
    ev.point = TracepointId::SysEnter;
    EXPECT_EQ(reg.fire(ev), 7);
    ev.point = TracepointId::SysExit;
    EXPECT_EQ(reg.fire(ev), 0); // wrong point: probe not run
    EXPECT_EQ(calls, 1);
    reg.detach(h);
    ev.point = TracepointId::SysEnter;
    EXPECT_EQ(reg.fire(ev), 0);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(reg.firedCount(), 3u);
}

TEST(TracepointTest, CostsSumAcrossProbes)
{
    TracepointRegistry reg;
    for (int i = 0; i < 3; ++i) {
        reg.attach(TracepointId::SysExit,
                   [](const RawSyscallEvent &) { return sim::Tick{10}; });
    }
    RawSyscallEvent ev;
    ev.point = TracepointId::SysExit;
    EXPECT_EQ(reg.fire(ev), 30);
    EXPECT_EQ(reg.probeCount(TracepointId::SysExit), 3u);
}

// ---------------------------------------------------------------- sockets

TEST(SocketTest, FifoDeliveryAndCounters)
{
    Socket s(42);
    EXPECT_FALSE(s.readable());
    Message a, b;
    a.requestId = 1;
    b.requestId = 2;
    s.deliver(a, 100);
    s.deliver(b, 200);
    EXPECT_TRUE(s.readable());
    EXPECT_EQ(s.rxDepth(), 2u);
    EXPECT_EQ(s.pop().requestId, 1u);
    EXPECT_EQ(s.pop().requestId, 2u);
    EXPECT_EQ(s.delivered(), 2u);
    EXPECT_EQ(s.consumed(), 2u);
}

TEST(SocketTest, TransmitInvokesHook)
{
    Socket s(1);
    std::vector<std::uint64_t> sent;
    s.setTxHandler([&](Message &&m) { sent.push_back(m.requestId); });
    Message m;
    m.requestId = 9;
    s.transmit(std::move(m));
    EXPECT_EQ(sent, (std::vector<std::uint64_t>{9}));
    EXPECT_EQ(s.transmitted(), 1u);
}

// ------------------------------------------------------------------ epoll

TEST(EpollTest, LevelTriggeredCollect)
{
    auto sock = std::make_shared<Socket>(1);
    EpollInstance ep;
    ep.add(5, sock);
    EXPECT_TRUE(ep.collectReady(8).empty());
    sock->deliver(Message{}, 0);
    auto ready = ep.collectReady(8);
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0].fd, 5);
    // Level semantics: still ready until drained.
    EXPECT_EQ(ep.collectReady(8).size(), 1u);
    sock->pop();
    EXPECT_TRUE(ep.collectReady(8).empty());
}

TEST(EpollTest, MaxEventsCaps)
{
    EpollInstance ep;
    std::vector<std::shared_ptr<Socket>> socks;
    for (int i = 0; i < 6; ++i) {
        socks.push_back(std::make_shared<Socket>(i));
        socks.back()->deliver(Message{}, 0);
        ep.add(i, socks.back());
    }
    EXPECT_EQ(ep.collectReady(4).size(), 4u);
}

TEST(EpollTest, WakesOneWaiterPerEdge)
{
    auto sock = std::make_shared<Socket>(1);
    EpollInstance ep;
    ep.add(3, sock);
    int woken_a = 0, woken_b = 0;
    ep.addWaiter([&] { ++woken_a; });
    ep.addWaiter([&] { ++woken_b; });
    sock->deliver(Message{}, 0);
    EXPECT_EQ(woken_a + woken_b, 1); // FIFO: exactly one
    EXPECT_EQ(woken_a, 1);
    EXPECT_EQ(ep.waiterCount(), 1u);
}

TEST(EpollTest, RemoveWaiter)
{
    EpollInstance ep;
    auto sock = std::make_shared<Socket>(1);
    ep.add(3, sock);
    bool woken = false;
    const auto id = ep.addWaiter([&] { woken = true; });
    ep.removeWaiter(id);
    sock->deliver(Message{}, 0);
    EXPECT_FALSE(woken);
}

TEST(EpollTest, RemoveFdStopsNotifications)
{
    EpollInstance ep;
    auto sock = std::make_shared<Socket>(1);
    ep.add(3, sock);
    ep.remove(3);
    sock->deliver(Message{}, 0);
    EXPECT_TRUE(ep.collectReady(8).empty());
}

/**
 * Reference epoll: the full interest-list scan the ready set replaces.
 * Visits every watched fd cyclically from just after the cursor.
 */
struct FullScanEpoll
{
    std::map<Fd, std::shared_ptr<File>> interest;
    Fd cursor = 0;

    std::vector<ReadyFd>
    collectReady(std::size_t max_events)
    {
        std::vector<ReadyFd> out;
        if (interest.empty() || max_events == 0)
            return out;
        auto start = interest.upper_bound(cursor);
        if (start == interest.end())
            start = interest.begin();
        auto it = start;
        do {
            if (it->second->readable()) {
                out.push_back(ReadyFd{it->first, true,
                                      it->second->writable()});
                cursor = it->first;
                if (out.size() >= max_events)
                    break;
            }
            if (++it == interest.end())
                it = interest.begin();
        } while (it != start);
        return out;
    }

    bool
    readable() const
    {
        return std::any_of(interest.begin(), interest.end(),
                           [](const auto &p) { return p.second->readable(); });
    }
};

TEST(EpollTest, ReadySetMatchesFullScan)
{
    constexpr int kSockets = 12;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        std::mt19937_64 rng(seed);
        auto pick = [&rng](int n) {
            return static_cast<int>(rng() % static_cast<unsigned>(n));
        };
        // fds 0..11 sockets, 12 a listener, 13 a nested epoll that
        // watches the first four sockets.
        std::vector<std::shared_ptr<Socket>> socks;
        for (int i = 0; i < kSockets; ++i)
            socks.push_back(std::make_shared<Socket>(i));
        auto listener = std::make_shared<ListenSocket>();
        auto inner = std::make_shared<EpollInstance>();
        std::vector<std::shared_ptr<File>> files(socks.begin(), socks.end());
        files.push_back(listener);
        files.push_back(inner);
        const int nfiles = static_cast<int>(files.size());

        EpollInstance ep;
        FullScanEpoll ref;
        for (int fd = 0; fd < 4; ++fd)
            inner->add(fd, socks[fd]);

        for (int step = 0; step < 3000; ++step) {
            switch (pick(7)) {
            case 0:
                socks[pick(kSockets)]->deliver(Message{}, step);
                break;
            case 1: {
                auto &s = socks[pick(kSockets)];
                if (s->hasData())
                    s->pop();
                break;
            }
            case 2:
                if (pick(2) == 0)
                    listener->enqueueConnection(std::make_shared<Socket>(99));
                else if (listener->hasPending())
                    listener->acceptOne();
                break;
            case 3: {
                const Fd fd = pick(nfiles);
                if (!ref.interest.count(fd)) {
                    ep.add(fd, files[fd]);
                    ref.interest.emplace(fd, files[fd]);
                }
                break;
            }
            case 4: {
                const Fd fd = pick(nfiles);
                ep.remove(fd);
                ref.interest.erase(fd);
                break;
            }
            case 5: {
                // Churn the nested epoll's own interest list too.
                const Fd fd = pick(4);
                inner->remove(fd);
                if (pick(2) == 0)
                    inner->add(fd, socks[fd]);
                break;
            }
            default: {
                const auto max_events = static_cast<std::size_t>(1 + pick(16));
                const auto got = ep.collectReady(max_events);
                const auto want = ref.collectReady(max_events);
                ASSERT_EQ(got.size(), want.size())
                    << "seed " << seed << " step " << step;
                for (std::size_t i = 0; i < got.size(); ++i) {
                    ASSERT_EQ(got[i].fd, want[i].fd)
                        << "seed " << seed << " step " << step;
                    ASSERT_EQ(got[i].readable, want[i].readable);
                    ASSERT_EQ(got[i].writable, want[i].writable);
                }
                break;
            }
            }
            ASSERT_EQ(ep.readable(), ref.readable())
                << "seed " << seed << " step " << step;
        }
    }
}

// --------------------------------------------------- syscalls end-to-end

TEST(KernelSyscallTest, EchoThreadRoundTrip)
{
    Harness h;
    const Pid pid = h.kernel.createProcess("echo");
    auto [fd, sock] = h.kernel.installSocket(pid, 1);
    std::vector<Message> out;
    sock->setTxHandler([&](Message &&m) { out.push_back(m); });

    const Fd conn = fd;
    h.kernel.spawnThread(pid, [conn](Kernel &k, Tid tid) -> Task {
        const Fd epfd = k.epollCreate(tid);
        k.epollCtlAdd(tid, epfd, conn);
        for (;;) {
            auto ready = co_await k.epollWait(tid, epfd, 4, -1);
            for (auto &r : ready) {
                auto rx = co_await k.recv(tid, r.fd, Syscall::Recvfrom);
                if (!rx.ok)
                    continue;
                Message resp = rx.msg;
                resp.isResponse = true;
                co_await k.send(tid, r.fd, std::move(resp),
                                Syscall::Sendto);
            }
        }
    });

    // Two requests, spaced apart.
    auto *sk = sock.get();
    h.sim.schedule(sim::microseconds(10), [&, sk] {
        Message m;
        m.requestId = 11;
        sk->deliver(std::move(m), h.sim.now());
    });
    h.sim.schedule(sim::microseconds(500), [&, sk] {
        Message m;
        m.requestId = 22;
        sk->deliver(std::move(m), h.sim.now());
    });
    h.sim.runFor(sim::milliseconds(2));

    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].requestId, 11u);
    EXPECT_EQ(out[1].requestId, 22u);
    EXPECT_TRUE(out[0].isResponse);

    // Trace sanity: one recvfrom and one sendto per request, epoll_wait
    // enters >= 2, and everything carries the right pid.
    EXPECT_EQ(h.log.countOf(Syscall::Recvfrom, TracepointId::SysExit), 2u);
    EXPECT_EQ(h.log.countOf(Syscall::Sendto, TracepointId::SysExit), 2u);
    EXPECT_GE(h.log.countOf(Syscall::EpollWait, TracepointId::SysEnter), 2u);
    for (const auto &ev : h.log.events)
        EXPECT_EQ(tgidOf(ev.pidTgid), pid);
}

TEST(KernelSyscallTest, EpollWaitDurationReflectsIdleness)
{
    Harness h;
    const Pid pid = h.kernel.createProcess("idle");
    auto [fd, sock] = h.kernel.installSocket(pid, 1);

    h.kernel.spawnThread(pid, [fd = fd](Kernel &k, Tid tid) -> Task {
        const Fd epfd = k.epollCreate(tid);
        k.epollCtlAdd(tid, epfd, fd);
        co_await k.epollWait(tid, epfd, 4, -1);
    });

    auto *sk = sock.get();
    h.sim.schedule(sim::milliseconds(3),
                   [&, sk] { sk->deliver(Message{}, h.sim.now()); });
    h.sim.runFor(sim::milliseconds(5));

    // Find the epoll_wait enter/exit pair and check its duration covers
    // the 3ms idle wait.
    sim::Tick enter = -1, exit = -1;
    for (const auto &ev : h.log.events) {
        if (ev.syscall != syscallId(Syscall::EpollWait))
            continue;
        if (ev.point == TracepointId::SysEnter)
            enter = ev.timestamp;
        else
            exit = ev.timestamp;
    }
    ASSERT_GE(enter, 0);
    ASSERT_GT(exit, enter);
    EXPECT_NEAR(static_cast<double>(exit - enter),
                static_cast<double>(sim::milliseconds(3)),
                static_cast<double>(sim::microseconds(20)));
}

TEST(KernelSyscallTest, EpollWaitTimeoutReturnsEmpty)
{
    Harness h;
    const Pid pid = h.kernel.createProcess("timeout");
    auto [fd, sock] = h.kernel.installSocket(pid, 1);
    std::size_t got = 99;
    h.kernel.spawnThread(pid, [fd = fd, &got](Kernel &k, Tid tid) -> Task {
        const Fd epfd = k.epollCreate(tid);
        k.epollCtlAdd(tid, epfd, fd);
        auto ready =
            co_await k.epollWait(tid, epfd, 4, sim::milliseconds(1));
        got = ready.size();
    });
    h.sim.runFor(sim::milliseconds(5));
    EXPECT_EQ(got, 0u);
}

TEST(KernelSyscallTest, RecvOnEmptySocketReturnsEagain)
{
    Harness h;
    const Pid pid = h.kernel.createProcess("eagain");
    auto [fd, sock] = h.kernel.installSocket(pid, 1);
    std::int64_t ret = 0;
    h.kernel.spawnThread(pid, [fd = fd, &ret](Kernel &k, Tid tid) -> Task {
        auto rx = co_await k.recv(tid, fd, Syscall::Read);
        ret = rx.ret;
    });
    h.sim.runFor(sim::milliseconds(1));
    EXPECT_EQ(ret, -11);
}

TEST(KernelSyscallTest, SelectWakesOnData)
{
    Harness h;
    const Pid pid = h.kernel.createProcess("sel");
    auto [fd1, s1] = h.kernel.installSocket(pid, 1);
    auto [fd2, s2] = h.kernel.installSocket(pid, 2);
    std::vector<Fd> got;
    h.kernel.spawnThread(
        pid, [fd1 = fd1, fd2 = fd2, &got](Kernel &k, Tid tid) -> Task {
            std::vector<Fd> fds{fd1, fd2};
            got = co_await k.select(tid, std::move(fds), -1);
        });
    auto *sk = s2.get();
    h.sim.schedule(sim::microseconds(100),
                   [&, sk] { sk->deliver(Message{}, h.sim.now()); });
    h.sim.runFor(sim::milliseconds(1));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], fd2);
    EXPECT_GE(h.log.countOf(Syscall::Select, TracepointId::SysExit), 1u);
}

TEST(KernelSyscallTest, AcceptDrainsListenQueue)
{
    Harness h;
    const Pid pid = h.kernel.createProcess("srv");
    Fd listen_fd = -1;
    Fd accepted = -1;
    h.kernel.spawnThread(pid,
                         [&listen_fd, &accepted](Kernel &k,
                                                 Tid tid) -> Task {
                             listen_fd = k.listen(tid);
                             accepted = co_await k.accept(tid, listen_fd);
                         });
    h.sim.runFor(sim::microseconds(1)); // let listen() run
    ASSERT_GE(listen_fd, 0);
    // accept() with empty backlog -> EAGAIN first.
    h.sim.runFor(sim::milliseconds(1));
    EXPECT_EQ(accepted, -11);

    Fd accepted2 = -1;
    h.kernel.enqueueIncomingConnection(pid, listen_fd,
                                       std::make_shared<Socket>(77));
    h.kernel.spawnThread(
        pid, [listen_fd, &accepted2](Kernel &k, Tid tid) -> Task {
            accepted2 = co_await k.accept(tid, listen_fd);
        });
    h.sim.runFor(sim::milliseconds(1));
    EXPECT_GE(accepted2, 0);
    EXPECT_NE(h.kernel.socketAt(pid, accepted2), nullptr);
}

TEST(KernelSyscallTest, FdLookupsRejectBadAndMistypedFds)
{
    Harness h;
    const Pid pid = h.kernel.createProcess("fds");
    auto [fd, sock] = h.kernel.installSocket(pid, 1);
    Fd epfd = -1;
    Fd lfd = -1;
    h.kernel.spawnThread(pid, [&epfd, &lfd](Kernel &k, Tid tid) -> Task {
        epfd = k.epollCreate(tid);
        lfd = k.listen(tid);
        co_return;
    });
    h.sim.runFor(sim::microseconds(1));
    ASSERT_GE(epfd, 0);
    ASSERT_GE(lfd, 0);

    EXPECT_EQ(h.kernel.socketAt(pid, fd), sock.get());
    EXPECT_EQ(h.kernel.sharedSocketAt(pid, fd), sock);
    EXPECT_EQ(h.kernel.fileAt(pid, fd), sock.get());
    for (Fd bad : {-1, -1000, lfd + 1, 1 << 20}) {
        EXPECT_EQ(h.kernel.fileAt(pid, bad), nullptr) << bad;
        EXPECT_EQ(h.kernel.socketAt(pid, bad), nullptr) << bad;
        EXPECT_EQ(h.kernel.sharedSocketAt(pid, bad), nullptr) << bad;
        EXPECT_EQ(h.kernel.epollAt(pid, bad), nullptr) << bad;
        EXPECT_EQ(h.kernel.listenerAt(pid, bad), nullptr) << bad;
    }
    // stdin..stderr are never installed.
    for (Fd std_fd : {0, 1, 2})
        EXPECT_EQ(h.kernel.fileAt(pid, std_fd), nullptr) << std_fd;
    // Non-socket fds exist but are not sockets, and vice versa.
    EXPECT_NE(h.kernel.fileAt(pid, epfd), nullptr);
    EXPECT_EQ(h.kernel.socketAt(pid, epfd), nullptr);
    EXPECT_EQ(h.kernel.socketAt(pid, lfd), nullptr);
    EXPECT_EQ(h.kernel.sharedSocketAt(pid, lfd), nullptr);
    EXPECT_NE(h.kernel.epollAt(pid, epfd), nullptr);
    EXPECT_EQ(h.kernel.epollAt(pid, fd), nullptr);
    EXPECT_NE(h.kernel.listenerAt(pid, lfd), nullptr);
    EXPECT_EQ(h.kernel.listenerAt(pid, epfd), nullptr);
}

TEST(KernelSyscallTest, SelectSkipsUnknownFds)
{
    // select() takes the caller's fd list as is: fds that do not exist
    // are never ready and never watched.
    Harness h;
    const Pid pid = h.kernel.createProcess("sel");
    auto [fd, sock] = h.kernel.installSocket(pid, 1);
    std::vector<Fd> got;
    h.kernel.spawnThread(pid, [fd = fd, &got](Kernel &k, Tid tid) -> Task {
        std::vector<Fd> fds{-1, 1 << 20, fd};
        got = co_await k.select(tid, std::move(fds), -1);
    });
    auto *sk = sock.get();
    h.sim.schedule(sim::microseconds(100),
                   [&, sk] { sk->deliver(Message{}, h.sim.now()); });
    h.sim.runFor(sim::milliseconds(1));
    EXPECT_EQ(got, std::vector<Fd>{fd});
}

TEST(KernelSyscallTest, SleepForTakesSimulatedTime)
{
    Harness h;
    const Pid pid = h.kernel.createProcess("sleepy");
    sim::Tick woke = -1;
    h.kernel.spawnThread(pid, [&woke](Kernel &k, Tid tid) -> Task {
        co_await k.sleepFor(tid, sim::milliseconds(7));
        woke = k.sim().now();
    });
    h.sim.runFor(sim::milliseconds(10));
    EXPECT_NEAR(static_cast<double>(woke),
                static_cast<double>(sim::milliseconds(7)), 5000.0);
    EXPECT_EQ(h.log.countOf(Syscall::Nanosleep, TracepointId::SysExit), 1u);
}

TEST(KernelSyscallTest, SocketPairCrossDelivers)
{
    Harness h;
    const Pid a = h.kernel.createProcess("a");
    const Pid b = h.kernel.createProcess("b");
    auto [fd_a, fd_b] =
        h.kernel.socketPair(a, b, sim::microseconds(20));
    std::uint64_t got = 0;
    h.kernel.spawnThread(b, [fd_b = fd_b, &got](Kernel &k, Tid tid) -> Task {
        const Fd epfd = k.epollCreate(tid);
        k.epollCtlAdd(tid, epfd, fd_b);
        co_await k.epollWait(tid, epfd, 4, -1);
        auto rx = co_await k.recv(tid, fd_b, Syscall::Read);
        got = rx.msg.requestId;
    });
    h.kernel.spawnThread(a, [fd_a = fd_a](Kernel &k, Tid tid) -> Task {
        Message m;
        m.requestId = 314;
        co_await k.send(tid, fd_a, std::move(m), Syscall::Write);
    });
    h.sim.runFor(sim::milliseconds(1));
    EXPECT_EQ(got, 314u);
}

TEST(KernelSyscallTest, ProbeCostDilatesSyscalls)
{
    // Attach an expensive probe; thread timelines must stretch by it.
    sim::Simulation sim(1);
    Kernel kernel(sim);
    kernel.tracepoints().attach(
        TracepointId::SysEnter,
        [](const RawSyscallEvent &) { return sim::microseconds(50); });

    const Pid pid = kernel.createProcess("p");
    sim::Tick finished = -1;
    kernel.spawnThread(pid, [&finished](Kernel &k, Tid tid) -> Task {
        co_await k.sleepFor(tid, sim::microseconds(10));
        finished = k.sim().now();
    });
    sim.runFor(sim::milliseconds(1));
    // 50us probe + 10us sleep (plus sub-us exit cost).
    EXPECT_GE(finished, sim::microseconds(60));
}

TEST(KernelSyscallTest, ThreadFinishTracked)
{
    Harness h;
    const Pid pid = h.kernel.createProcess("f");
    const Tid tid = h.kernel.spawnThread(
        pid, [](Kernel &k, Tid t) -> Task { co_await k.sleepFor(t, 10); });
    EXPECT_FALSE(h.kernel.threadFinished(tid));
    h.sim.runFor(sim::milliseconds(1));
    EXPECT_TRUE(h.kernel.threadFinished(tid));
}

// --------------------------------------------------------------- notifier

TEST(NotifierTest, WaitersWakeFifoAndFireFutex)
{
    Harness h;
    const Pid pid = h.kernel.createProcess("n");
    kernel::Notifier notifier(h.kernel);
    std::vector<int> order;

    for (int i = 0; i < 2; ++i) {
        h.kernel.spawnThread(
            pid, [&notifier, &order, i](Kernel &, Tid tid) -> Task {
                co_await notifier.wait(tid);
                order.push_back(i);
            });
    }
    h.sim.runFor(sim::microseconds(10));
    EXPECT_EQ(notifier.waiters(), 2u);
    notifier.notifyOne();
    h.sim.runFor(sim::microseconds(10));
    EXPECT_EQ(order, (std::vector<int>{0}));
    notifier.notifyOne();
    h.sim.runFor(sim::microseconds(10));
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_FALSE(notifier.notifyOne()); // nobody left
    EXPECT_EQ(h.log.countOf(Syscall::Futex, TracepointId::SysExit), 2u);
}

// ------------------------------------------------------------ system spec

TEST(SystemSpecTest, TableOneValues)
{
    const SystemSpec amd = amdEpyc7302();
    EXPECT_EQ(amd.sockets, 2u);
    EXPECT_EQ(amd.coresPerSocket, 16u);
    EXPECT_EQ(amd.threadsPerCore, 2u);
    EXPECT_EQ(amd.logicalCpus(), 64u);
    const CpuConfig cfg = amd.toCpuConfig();
    EXPECT_GT(cfg.cores, 32u); // SMT bonus above physical cores
    EXPECT_LT(cfg.cores, 64u); // but below logical count
    EXPECT_DOUBLE_EQ(cfg.speed, 1.0);

    const SystemSpec intel = intelXeonE52620();
    EXPECT_EQ(intel.logicalCpus(), 16u);
    EXPECT_EQ(intel.toCpuConfig().cores, 16u);

    EXPECT_NE(formatSystemSpec(amd).find("EPYC"), std::string::npos);
}

} // namespace
} // namespace reqobs::kernel
