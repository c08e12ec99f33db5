/**
 * @file
 * Tests for the conservative-PDES domain engine: the latency-derived
 * partitioner, bit-identical event order against the serial engine at
 * one domain, cross-domain message ordering under backpressure,
 * zero-lookahead rejection, the full monitor contract, and the RTM
 * monitor surface driving a GPU platform split across domains.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "../bench/common.hh"
#include "gpu/platform.hh"
#include "json/json.hh"
#include "rtm/monitor.hh"
#include "sim/sim.hh"
#include "web/client.hh"

using namespace akita;
using namespace akita::sim;

namespace
{

/** Records the (time, handler) sequence of executed events. */
class OrderHook : public Hook
{
  public:
    void
    func(HookCtx &ctx) override
    {
        if (ctx.pos != &hookPosBeforeEvent)
            return;
        auto *e = static_cast<Event *>(ctx.item);
        std::lock_guard<std::mutex> lk(mu_);
        order.emplace_back(e->time(), e->handler());
    }

    std::vector<std::pair<VTime, EventHandler *>> order;

  private:
    std::mutex mu_;
};

/** A handler that re-schedules itself a fixed number of times. */
class ChainHandler : public EventHandler
{
  public:
    ChainHandler(Engine *eng, int id, VTime period, int count)
        : eng_(eng), id_(id), period_(period), remaining_(count)
    {
    }

    void
    handle(Event &e) override
    {
        fired_++;
        times_.push_back(e.time());
        if (--remaining_ > 0)
            eng_->schedule(
                std::make_unique<Event>(e.time() + period_, this));
    }

    std::string
    handlerName() const override
    {
        return "Chain" + std::to_string(id_);
    }

    int id() const { return id_; }
    int fired() const { return fired_; }
    const std::vector<VTime> &times() const { return times_; }

  private:
    Engine *eng_;
    int id_;
    VTime period_;
    int remaining_;
    int fired_ = 0;
    std::vector<VTime> times_;
};

/** The deterministic multi-handler workload from the parallel tests. */
std::vector<std::unique_ptr<ChainHandler>>
buildScenario(Engine &eng)
{
    std::vector<std::unique_ptr<ChainHandler>> handlers;
    const VTime periods[] = {2, 3, 5, 2, 3, 5, 4, 6};
    for (int i = 0; i < 8; i++) {
        handlers.push_back(std::make_unique<ChainHandler>(
            &eng, i, periods[i], 50));
        eng.schedule(std::make_unique<Event>(
            static_cast<VTime>(i % 2), handlers.back().get()));
    }
    return handlers;
}

std::vector<std::pair<VTime, int>>
normalize(const std::vector<std::pair<VTime, EventHandler *>> &trace,
          const std::vector<std::unique_ptr<ChainHandler>> &handlers)
{
    std::map<EventHandler *, int> ids;
    for (const auto &h : handlers)
        ids[h.get()] = h->id();
    std::vector<std::pair<VTime, int>> out;
    out.reserve(trace.size());
    for (const auto &rec : trace)
        out.emplace_back(rec.first, ids.at(rec.second));
    return out;
}

class TestMsg : public Msg
{
  public:
    static constexpr MsgKind kKind = MsgKind::TestA;

    explicit TestMsg(int v) : Msg(kKind), value(v) {}

    const char *kind() const override { return "TestMsg"; }

    int value;
};

/** Scripted node: re-sends its outbox, drains its inbox at a rate. */
class Node : public TickingComponent
{
  public:
    Node(Engine *engine, const std::string &name, std::size_t buf_cap)
        : TickingComponent(engine, name, Freq::ghz(1))
    {
        in = addPort("In", buf_cap);
    }

    bool
    tick() override
    {
        bool progress = false;
        while (!outbox.empty()) {
            MsgPtr m = outbox.front();
            m->dst = target;
            if (in->send(m) != SendStatus::Ok)
                break;
            outbox.erase(outbox.begin());
            progress = true;
        }
        for (std::size_t i = 0; i < drainPerTick; i++) {
            MsgPtr m = in->retrieveIncoming();
            if (m == nullptr)
                break;
            received.push_back(msgCast<TestMsg>(m)->value);
            progress = true;
        }
        return progress;
    }

    Port *in = nullptr;
    Port *target = nullptr;
    std::vector<MsgPtr> outbox;
    std::vector<int> received;
    std::size_t drainPerTick = 4;
};

} // namespace

// ---- The partitioner ----

TEST(DomainPartitioner, ZeroLatencyEdgesNeverCut)
{
    DomainEngine eng(3);
    Node a(&eng, "A", 4), b(&eng, "B", 4), c(&eng, "C", 4),
        d(&eng, "D", 4);
    DirectConnection ab(&eng, "AB", 0);
    ab.plugIn(a.in);
    ab.plugIn(b.in);
    DirectConnection bc(&eng, "BC", 10 * kNanosecond);
    bc.plugIn(b.in);
    bc.plugIn(c.in);
    DirectConnection cd(&eng, "CD", 20 * kNanosecond);
    cd.plugIn(c.in);
    cd.plugIn(d.in);

    const DomainPartition &part = eng.partition();
    EXPECT_EQ(part.numDomains, 3);
    // The zero-latency pair is inseparable; everything else splits.
    EXPECT_EQ(part.domainOf.at(&a), part.domainOf.at(&b));
    EXPECT_NE(part.domainOf.at(&b), part.domainOf.at(&c));
    EXPECT_NE(part.domainOf.at(&c), part.domainOf.at(&d));
    // Domain 0 holds the earliest-registered component.
    EXPECT_EQ(part.domainOf.at(&a), 0);
    // Every cross edge carries the crossing connection's latency.
    for (const auto &e : part.edges)
        EXPECT_GT(e.lookahead, 0u);
}

TEST(DomainPartitioner, AgglomeratesCheapestEdgesFirst)
{
    DomainEngine eng(2);
    Node a(&eng, "A", 4), b(&eng, "B", 4), c(&eng, "C", 4),
        d(&eng, "D", 4);
    // A-B and C-D are tightly coupled (1ns); the B-C bridge is 50ns.
    DirectConnection ab(&eng, "AB", kNanosecond);
    ab.plugIn(a.in);
    ab.plugIn(b.in);
    DirectConnection cd(&eng, "CD", kNanosecond);
    cd.plugIn(c.in);
    cd.plugIn(d.in);
    DirectConnection bridge(&eng, "Bridge", 50 * kNanosecond);
    bridge.plugIn(b.in);
    bridge.plugIn(c.in);

    const DomainPartition &part = eng.partition();
    EXPECT_EQ(part.numDomains, 2);
    EXPECT_EQ(part.domainOf.at(&a), part.domainOf.at(&b));
    EXPECT_EQ(part.domainOf.at(&c), part.domainOf.at(&d));
    EXPECT_NE(part.domainOf.at(&a), part.domainOf.at(&c));
    // The only cut is the bridge: lookahead 50ns each way.
    ASSERT_EQ(part.edges.size(), 2u);
    for (const auto &e : part.edges)
        EXPECT_EQ(e.lookahead, 50 * kNanosecond);
}

TEST(DomainPartitioner, PinsWinOverTheTarget)
{
    DomainEngine eng(1);
    Node a(&eng, "A", 4), b(&eng, "B", 4);
    DirectConnection ab(&eng, "AB", 5 * kNanosecond);
    ab.plugIn(a.in);
    ab.plugIn(b.in);
    eng.pinComponent(&a, 0);
    eng.pinComponent(&b, 1);

    const DomainPartition &part = eng.partition();
    EXPECT_EQ(part.numDomains, 2);
    EXPECT_EQ(part.domainOf.at(&a), 0);
    EXPECT_EQ(part.domainOf.at(&b), 1);
}

// ---- Core engine contract (one domain) ----

TEST(DomainEngineCore, RunsEventsInTimeOrder)
{
    DomainEngine eng(1);
    std::mutex mu;
    std::vector<VTime> seen;
    for (VTime t : {400u, 100u, 300u, 200u}) {
        eng.scheduleAt(t, "t", [&seen, &mu, &eng]() {
            std::lock_guard<std::mutex> lk(mu);
            seen.push_back(eng.now());
        });
    }
    EXPECT_EQ(eng.run(), RunResult::Drained);
    EXPECT_EQ(seen, (std::vector<VTime>{100, 200, 300, 400}));
    EXPECT_EQ(eng.now(), 400u);
    EXPECT_EQ(eng.eventCount(), 4u);
    EXPECT_EQ(eng.scheduledCount(), 4u);
}

TEST(DomainEngineCore, OneDomainMatchesSerialEngineOrderExactly)
{
    SerialEngine serial;
    OrderHook serialHook;
    serial.acceptHook(&serialHook);
    auto serialHandlers = buildScenario(serial);
    EXPECT_EQ(serial.run(), RunResult::Drained);

    DomainEngine dom(1);
    OrderHook domHook;
    dom.acceptHook(&domHook);
    auto domHandlers = buildScenario(dom);
    EXPECT_EQ(dom.run(), RunResult::Drained);

    auto a = normalize(serialHook.order, serialHandlers);
    auto b = normalize(domHook.order, domHandlers);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a, b) << "1-domain order diverged from serial";
    EXPECT_EQ(dom.eventCount(), serial.eventCount());
    EXPECT_EQ(dom.now(), serial.now());
}

TEST(DomainEngineCore, HandlersScheduleMoreEvents)
{
    DomainEngine eng(1);
    std::atomic<int> fired{0};
    std::function<void()> chain = [&]() {
        if (fired.fetch_add(1) + 1 < 10)
            eng.scheduleAt(eng.now() + 10, "chain", chain);
    };
    eng.scheduleAt(0, "chain", chain);
    eng.run();
    EXPECT_EQ(fired.load(), 10);
    EXPECT_EQ(eng.now(), 90u);
}

TEST(DomainEngineCore, QueueLengthFromHandlerMatchesSerialEngine)
{
    // A handler sees the events still queued, not the running one or
    // the ones its batch already executed: a probe that re-arms while
    // queueLength() > 0 must stop on both engines.
    auto probeCounts = [](Engine &eng) {
        std::vector<std::size_t> seen;
        for (VTime t : {100u, 200u, 300u, 400u})
            eng.scheduleAt(t, "ev", []() {});
        std::function<void()> probe = [&]() {
            seen.push_back(eng.queueLength());
            // Bounded, so a miscount fails the test instead of hanging.
            if (eng.queueLength() > 0 && seen.size() < 8)
                eng.scheduleAt(eng.now() + 150, "probe", probe);
        };
        eng.scheduleAt(50, "probe", probe);
        EXPECT_EQ(eng.run(), RunResult::Drained);
        return seen;
    };
    SerialEngine serial;
    DomainEngine dom(1);
    std::vector<std::size_t> expected = probeCounts(serial);
    EXPECT_EQ(expected, (std::vector<std::size_t>{4, 2, 1, 0}));
    EXPECT_EQ(probeCounts(dom), expected);
}

TEST(DomainEngineCore, SchedulingInPastThrows)
{
    DomainEngine eng(1);
    eng.scheduleAt(100, "x", []() {});
    eng.run();
    // Idle engine: external schedules obey the serial-engine contract.
    EXPECT_THROW(eng.scheduleAt(50, "late", []() {}),
                 std::runtime_error);
    EXPECT_NO_THROW(eng.scheduleAt(100, "now", []() {}));

    // From a handler (the domain's own context) the past is also
    // rejected — this is the exact serial semantics 1-domain preserves.
    DomainEngine eng2(1);
    bool threw = false;
    eng2.scheduleAt(100, "h", [&eng2, &threw]() {
        try {
            eng2.scheduleAt(50, "late", []() {});
        } catch (const std::runtime_error &) {
            threw = true;
        }
    });
    eng2.run();
    EXPECT_TRUE(threw);
}

TEST(DomainEngineCore, HandlerExceptionPropagatesFromRun)
{
    DomainEngine eng(1);
    eng.scheduleAt(10, "boom", []() {
        throw std::runtime_error("handler failure");
    });
    EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(DomainEngineCore, StopAbortsRun)
{
    DomainEngine eng(1);
    std::atomic<int> fired{0};
    for (int i = 1; i <= 100; i++) {
        eng.scheduleAt(static_cast<VTime>(i * 10), "n", [&]() {
            if (fired.fetch_add(1) + 1 == 5)
                eng.stop();
        });
    }
    EXPECT_EQ(eng.run(), RunResult::Stopped);
    EXPECT_LT(fired.load(), 100);
    EXPECT_EQ(eng.run(), RunResult::Drained);
    EXPECT_EQ(fired.load(), 100);
}

TEST(DomainEngineCore, PauseAndResumeFromAnotherThread)
{
    DomainEngine eng(1);
    std::atomic<int> fired{0};
    std::function<void()> chain = [&]() {
        if (fired.fetch_add(1) + 1 < 10000)
            eng.scheduleAt(eng.now() + 1, "c", chain);
    };
    eng.scheduleAt(0, "c", chain);

    std::thread runner([&]() { eng.run(); });

    while (fired.load() < 100)
        std::this_thread::yield();
    eng.pause();
    EXPECT_TRUE(eng.paused());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    int atPause = fired.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // At most the in-flight event finishes after pause lands.
    EXPECT_LE(fired.load(), atPause + 1);

    eng.resume();
    runner.join();
    EXPECT_EQ(fired.load(), 10000);
}

TEST(DomainEngineCore, WaitWhenEmptyBlocksAndExternalScheduleRevives)
{
    DomainEngine eng(1);
    eng.setWaitWhenEmpty(true);

    std::atomic<int> fired{0};
    eng.scheduleAt(10, "a", [&]() { fired++; });

    std::thread runner([&]() { eng.run(); });

    while (fired.load() < 1)
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_TRUE(eng.running());
    EXPECT_TRUE(eng.drainedWaiting());

    // RTM's Tick / kick-start path: an external schedule revives it.
    eng.scheduleAt(eng.now() + 5, "b", [&]() {
        fired++;
        eng.stop();
    });
    runner.join();
    EXPECT_EQ(fired.load(), 2);
    EXPECT_FALSE(eng.running());
}

TEST(DomainEngineCore, WithLockGivesConsistentSnapshots)
{
    DomainEngine eng(1);

    std::int64_t a = 0, b = 0;
    std::function<void()> chain = [&]() {
        a++;
        b++;
        if (a < 20000)
            eng.scheduleAt(eng.now() + 1, "c", chain);
    };
    eng.scheduleAt(0, "c", chain);

    std::thread runner([&]() { eng.run(); });
    for (int i = 0; i < 200; i++) {
        eng.withLock([&]() { EXPECT_EQ(a, b); });
    }
    runner.join();
    EXPECT_EQ(a, 20000);
}

TEST(DomainEngineCore, WithLockFromHandlerRunsInline)
{
    DomainEngine eng(1);
    bool ran = false;
    eng.scheduleAt(10, "h", [&]() {
        eng.withLock([&ran]() { ran = true; });
    });
    eng.run();
    EXPECT_TRUE(ran);
}

TEST(DomainEngineCore, InspectableFieldsAndHooks)
{
    DomainEngine eng(1);
    eng.scheduleAt(5, "e", []() {});
    const auto &fields = eng.fields();
    EXPECT_NE(fields.find("now_ps"), nullptr);
    EXPECT_EQ(fields.find("queue_len")->getter().intVal(), 1);

    class CountingHook : public Hook
    {
      public:
        void
        func(HookCtx &ctx) override
        {
            if (ctx.pos == &hookPosBeforeEvent)
                before++;
            if (ctx.pos == &hookPosAfterEvent)
                after++;
            if (ctx.pos == &hookPosQueueDrained)
                drained++;
        }

        std::atomic<int> before{0}, after{0}, drained{0};
    };

    CountingHook hook;
    eng.acceptHook(&hook);
    for (int i = 0; i < 7; i++)
        eng.scheduleAt(static_cast<VTime>(10 + i), "e", []() {});
    eng.run();
    EXPECT_EQ(hook.before.load(), 8);
    EXPECT_EQ(hook.after.load(), 8);
    EXPECT_EQ(hook.drained.load(), 1);
    EXPECT_EQ(fields.find("queue_len")->getter().intVal(), 0);
    EXPECT_EQ(fields.find("total_events")->getter().intVal(), 8);
    EXPECT_EQ(fields.find("domains")->getter().intVal(), 1);
}

// ---- Cross-domain execution ----

TEST(DomainEngineCross, MessagesArriveInOrderUnderBackpressure)
{
    // Sender and receiver pinned to different domains; the receiver's
    // two-slot buffer forces backpressure, so wake events cross the
    // domain boundary in both directions (delivery one way, buffer-
    // freed wakes the other). Conservation and FIFO must hold — this
    // is the ordering regression the safe-window protocol guarantees.
    DomainEngine eng(2);
    Node a(&eng, "A", 4), b(&eng, "B", 2);
    DirectConnection conn(&eng, "Conn", 5 * kNanosecond);
    conn.plugIn(a.in);
    conn.plugIn(b.in);
    eng.pinComponent(&a, 0);
    eng.pinComponent(&b, 1);

    a.target = b.in;
    b.drainPerTick = 1;
    for (int i = 0; i < 20; i++)
        a.outbox.push_back(makeMsg<TestMsg>(i));
    a.tickLater();

    EXPECT_EQ(eng.numDomains(), 2);
    EXPECT_EQ(eng.run(), RunResult::Drained);

    ASSERT_EQ(b.received.size(), 20u);
    for (int i = 0; i < 20; i++)
        EXPECT_EQ(b.received[i], i);
}

namespace
{

/**
 * Offers the head of its outbox every @c gap cycles, after burning
 * @c spin loop iterations, and sleeps on Busy until woken. With a gap
 * shorter than the link latency the receiver's retrieve of the
 * previous message falls, in virtual time, after the offer — so across
 * two domains the two run concurrently in wall-clock time.
 */
class GapSender : public TickingComponent
{
  public:
    explicit GapSender(Engine *engine)
        : TickingComponent(engine, "Sender", Freq::ghz(1))
    {
        out = addPort("Out", 1);
    }

    bool
    tick() override
    {
        if (outbox.empty())
            return false;
        volatile int sink = 0;
        for (int i = 0; i < spin; i++)
            sink = sink + i;
        outbox.front()->dst = target;
        if (out->send(outbox.front()) != SendStatus::Ok)
            return false;
        outbox.erase(outbox.begin());
        scheduleTickAt(engine()->now() + gap * freq().period());
        return false;
    }

    Port *out = nullptr;
    Port *target = nullptr;
    std::vector<MsgPtr> outbox;
    int gap = 2;
    int spin = 0;
};

/** Ticks every cycle for a fixed number of cycles, doing nothing. */
class Metronome : public TickingComponent
{
  public:
    Metronome(Engine *engine, int cycles)
        : TickingComponent(engine, "Metronome", Freq::ghz(1)),
          left_(cycles)
    {
    }

    bool tick() override { return --left_ > 0; }

  private:
    int left_;
};

} // namespace

TEST(DomainEngineCross, BackpressureWakeNeverLostAcrossDomains)
{
    // Regression for Port's slot/wake handshake. A sender whose
    // reserve() fails registers for a wake and then re-reads the slot
    // count; the receiver, on the other worker, frees the slot and then
    // reads the registration flag. Without the re-check, a slot freed
    // between the sender's failed try and its registration wakes
    // nobody: the sender sleeps for good and the run drains with
    // messages left in its outbox. A one-slot buffer behind a 20-cycle
    // link, offered to every 2-17 cycles, makes offers race retrieves:
    // the metronome's per-cycle events let the sender's domain publish
    // a horizon between a send and the next offer, so the receiver may
    // retrieve while the offer runs. The runs vary the gap and where
    // in its tick the sender offers.
    constexpr int kRuns = 200;
    constexpr int kMsgs = 100;
    for (int run = 0; run < kRuns; run++) {
        DomainEngine eng(2);
        GapSender a(&eng);
        Metronome beat(&eng, kMsgs * 40);
        Node b(&eng, "Receiver", 1);
        DirectConnection conn(&eng, "Conn", 20 * kNanosecond);
        conn.plugIn(a.out);
        conn.plugIn(b.in);
        eng.pinComponent(&a, 0);
        eng.pinComponent(&beat, 0);
        eng.pinComponent(&b, 1);

        a.target = b.in;
        a.gap = 2 + run % 16;
        static const int kSpins[] = {0, 300, 1000, 3000, 10000, 30000};
        a.spin = kSpins[run / 16 % 6];
        b.drainPerTick = 1;
        for (int i = 0; i < kMsgs; i++)
            a.outbox.push_back(makeMsg<TestMsg>(i));
        a.tickLater();
        beat.tickLater();

        ASSERT_EQ(eng.run(), RunResult::Drained);
        ASSERT_EQ(b.received.size(), static_cast<std::size_t>(kMsgs))
            << "run " << run << ": a backpressure wake was lost";
    }
}

TEST(DomainEngineCross, EndStateMatchesSerialEngine)
{
    // Same rig on the serial engine and on a 2-domain engine: the
    // delivered data must be identical (the end-state determinism bar;
    // wall-clock interleaving and wake alignment may differ). A 1-slot
    // cross-domain ring fills at once and spills into the locked slow
    // mailbox, so the second capacity covers the spill path.
    auto runRig = [](Engine &eng, DomainEngine *de) {
        Node a(&eng, "A", 4), b(&eng, "B", 2);
        DirectConnection conn(&eng, "Conn", 5 * kNanosecond);
        conn.plugIn(a.in);
        conn.plugIn(b.in);
        if (de != nullptr) {
            de->pinComponent(&a, 0);
            de->pinComponent(&b, 1);
        }
        a.target = b.in;
        b.drainPerTick = 1;
        for (int i = 0; i < 30; i++)
            a.outbox.push_back(makeMsg<TestMsg>(i));
        a.tickLater();
        EXPECT_EQ(eng.run(), RunResult::Drained);
        return b.received;
    };

    SerialEngine serial;
    std::vector<int> serialRx = runRig(serial, nullptr);

    for (int ringCapacity : {0, 1}) {
        SCOPED_TRACE("ring capacity " + std::string(ringCapacity == 0
                                                        ? "default"
                                                        : "1"));
        DomainEngine dom(2);
        if (ringCapacity != 0)
            dom.setRingCapacity(ringCapacity);
        std::vector<int> domRx = runRig(dom, &dom);

        EXPECT_EQ(domRx, serialRx);
        if (ringCapacity == 1) {
            EXPECT_GT(dom.mailboxSlowTotal(), 0u);
        }
    }
}

TEST(DomainEngineCross, ZeroLookaheadRejectedAtRunByName)
{
    // A pin-forced cut across a zero-latency connection has no safe
    // window; run() must refuse up front, naming the connection —
    // not deadlock, not silently serialize.
    DomainEngine eng(2);
    Node a(&eng, "A", 4), b(&eng, "B", 4);
    DirectConnection conn(&eng, "ZeroLatConn", 0);
    conn.plugIn(a.in);
    conn.plugIn(b.in);
    eng.pinComponent(&a, 0);
    eng.pinComponent(&b, 1);
    a.tickLater();

    try {
        eng.run();
        FAIL() << "expected run() to reject the zero-lookahead cut";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("ZeroLatConn"),
                  std::string::npos)
            << "message must name the connection: " << e.what();
    }
}

TEST(DomainEngineCross, PerDomainStatusSumsToTotals)
{
    DomainEngine eng(2);
    Node a(&eng, "A", 8), b(&eng, "B", 8);
    DirectConnection conn(&eng, "Conn", 5 * kNanosecond);
    conn.plugIn(a.in);
    conn.plugIn(b.in);
    eng.pinComponent(&a, 0);
    eng.pinComponent(&b, 1);
    a.target = b.in;
    for (int i = 0; i < 10; i++)
        a.outbox.push_back(makeMsg<TestMsg>(i));
    a.tickLater();
    EXPECT_EQ(eng.run(), RunResult::Drained);

    std::uint64_t sum = 0;
    for (int i = 0; i < eng.numDomains(); i++) {
        DomainEngine::DomainStatus st = eng.domainStatus(i);
        sum += st.events;
        EXPECT_EQ(st.queueLen, 0u);
        // All clocks synchronized at global drain.
        EXPECT_EQ(st.clock, eng.now());
    }
    EXPECT_EQ(sum, eng.eventCount());
    ASSERT_EQ(eng.domainMemberNames().size(), 2u);
    EXPECT_EQ(eng.domainMemberNames()[0][0], "A");
    EXPECT_EQ(eng.domainMemberNames()[1][0], "B");
}

// ---- The RTM monitor surface against a domain-engine platform ----

namespace
{

gpu::KernelDescriptor
smallKernel(std::uint32_t wgs)
{
    gpu::KernelDescriptor k;
    k.name = "small";
    k.numWorkGroups = wgs;
    k.wavefrontsPerWG = 2;
    k.trace = [](std::uint32_t wg, std::uint32_t wf) {
        std::vector<gpu::WfOp> ops;
        for (int i = 0; i < 4; i++) {
            ops.push_back(gpu::WfOp::load(
                0x10000ull + (wg * 64 + wf * 16 + i) * 4096, 64, 2));
        }
        return ops;
    };
    return k;
}

} // namespace

TEST(DomainEngineRtm, PlatformSelectsEngineKindAndPartitions)
{
    gpu::PlatformConfig cfg =
        gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());
    cfg.engineKind = gpu::EngineKind::Domain;
    cfg.domains = 4;
    gpu::Platform plat(cfg);
    auto *de = dynamic_cast<DomainEngine *>(&plat.engine());
    ASSERT_NE(de, nullptr);
    EXPECT_EQ(de->requestedDomains(), 4);
    EXPECT_EQ(de->numDomains(), 4);
    // Domain 0 contains the first-built component: the driver.
    const auto &members = de->domainMemberNames();
    ASSERT_FALSE(members.empty());
    bool driverInZero = false;
    for (const auto &name : members[0])
        driverInZero = driverInZero || name == "Driver";
    EXPECT_TRUE(driverInZero);
    // Every cross-domain edge has positive lookahead on this topology.
    for (const auto &e : de->partition().edges)
        EXPECT_GT(e.lookahead, 0u);
}

TEST(DomainEngineRtm, ApplyEngineArgsParsesFlags)
{
    gpu::PlatformConfig cfg;
    const char *argvConst[] = {"prog", "--engine=domain",
                               "--domains=3"};
    gpu::applyEngineArgs(cfg, 3, const_cast<char **>(argvConst));
    EXPECT_EQ(cfg.engineKind, gpu::EngineKind::Domain);
    EXPECT_EQ(cfg.domains, 3);

    const char *argvSerial[] = {"prog", "--engine=serial"};
    gpu::applyEngineArgs(cfg, 2, const_cast<char **>(argvSerial));
    EXPECT_EQ(cfg.engineKind, gpu::EngineKind::Serial);
}

TEST(DomainEngineRtm, UnknownEngineNameIsRejected)
{
    // A typo or a retired engine name must not silently run serial.
    gpu::PlatformConfig cfg;
    for (const char *flag : {"--engine=bogus", "--engine=parallel"}) {
        const char *argvBad[] = {"prog", flag};
        try {
            gpu::applyEngineArgs(cfg, 2, const_cast<char **>(argvBad));
            ADD_FAILURE() << flag << " was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("serial, domain"),
                      std::string::npos)
                << e.what();
        }
    }

    const char *prev = std::getenv("AKITA_ENGINE");
    std::string saved = prev != nullptr ? prev : "";
    ::setenv("AKITA_ENGINE", "bogus", 1);
    EXPECT_THROW(gpu::applyEngineEnv(cfg), std::invalid_argument);
    if (prev != nullptr)
        ::setenv("AKITA_ENGINE", saved.c_str(), 1);
    else
        ::unsetenv("AKITA_ENGINE");
}

TEST(DomainEngineRtm, EngineFactoriesAgreeOnDomainEngine)
{
    // Platform and the bench harnesses' bare-engine factory both build
    // through gpu::makeEngine, so --engine=domain reaches both.
    gpu::PlatformConfig cfg =
        gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());
    cfg.engineKind = gpu::EngineKind::Domain;
    cfg.domains = 2;
    gpu::Platform plat(cfg);
    EXPECT_NE(dynamic_cast<DomainEngine *>(&plat.engine()), nullptr);

    static const char *argvDomain[] = {"prog", "--engine=domain",
                                       "--domains=2"};
    bench::parseCli(3, const_cast<char **>(argvDomain));
    std::unique_ptr<Engine> eng = bench::makeEngine();
    auto *de = dynamic_cast<DomainEngine *>(eng.get());
    ASSERT_NE(de, nullptr);
    EXPECT_EQ(de->requestedDomains(), 2);
    bench::parseCli(0, nullptr);
}

TEST(DomainEngineRtm, PlatformRunMatchesSerialCompletion)
{
    auto serialCfg = gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());
    gpu::Platform serialPlat(serialCfg);
    auto k1 = smallKernel(16);
    serialPlat.launchKernel(&k1);
    ASSERT_EQ(serialPlat.run(), gpu::Platform::RunStatus::Completed);

    auto domCfg = gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());
    domCfg.engineKind = gpu::EngineKind::Domain;
    domCfg.domains = 4;
    gpu::Platform domPlat(domCfg);
    auto k2 = smallKernel(16);
    domPlat.launchKernel(&k2);
    ASSERT_EQ(domPlat.run(), gpu::Platform::RunStatus::Completed);

    EXPECT_GT(domPlat.engine().now(), 0u);
    EXPECT_GT(domPlat.engine().eventCount(), 0u);
}

TEST(DomainEngineRtm, FullMonitorSurface)
{
    gpu::PlatformConfig cfg =
        gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());
    cfg.engineKind = gpu::EngineKind::Domain;
    cfg.domains = 4;
    gpu::Platform plat(cfg);

    rtm::MonitorConfig mcfg;
    mcfg.announceUrl = false;
    mcfg.sampleIntervalMs = 10;
    mcfg.hangThresholdSec = 0.15;
    rtm::Monitor mon(mcfg);
    mon.registerEngine(&plat.engine());
    for (auto *c : plat.components())
        mon.registerComponent(c);
    plat.driver().setProgressListener(&mon);
    plat.driver().setAutoStop(false);

    auto k = smallKernel(32);
    plat.launchKernel(&k);
    std::thread runner([&]() { plat.run(); });

    // Virtual time and events advance while the monitor watches.
    VTime t0 = plat.engine().now();
    for (int i = 0; i < 500 && !plat.driver().allKernelsDone(); i++) {
        mon.status();
        mon.bufferLevels(rtm::BufferSort::ByPercent, 5);
        mon.metricsSamplePass();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_TRUE(plat.driver().allKernelsDone());
    EXPECT_GT(plat.engine().now(), t0);

    // Pause / resume through the monitor.
    mon.pause();
    EXPECT_TRUE(mon.paused());
    mon.resume();
    EXPECT_FALSE(mon.paused());

    // Hang detection: drained-waiting freezes the global time floor.
    rtm::HangStatus hang;
    for (int i = 0; i < 600; i++) {
        hang = mon.hangStatus();
        if (hang.hanging && hang.queueDrained)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(hang.hanging);
    EXPECT_TRUE(hang.queueDrained);

    // The per-component Tick button schedules into the live engine
    // cross-thread; the mailbox floor makes this legal at any clock.
    ASSERT_FALSE(plat.components().empty());
    EXPECT_TRUE(mon.tickComponent(plat.components().back()->name()));
    EXPECT_FALSE(mon.tickComponent("NoSuchComponent"));

    plat.engine().stop();
    runner.join();
}

// ---- The cost-weighted partitioner ----

TEST(DomainPartitionerWeighted, EmptyWeightsMatchStaticCut)
{
    SerialEngine host;
    Node a(&host, "A", 4), b(&host, "B", 4), c(&host, "C", 4),
        d(&host, "D", 4);
    DirectConnection ab(&host, "AB", kNanosecond);
    ab.plugIn(a.in);
    ab.plugIn(b.in);
    DirectConnection bc(&host, "BC", kNanosecond);
    bc.plugIn(b.in);
    bc.plugIn(c.in);
    DirectConnection cd(&host, "CD", kNanosecond);
    cd.plugIn(c.in);
    cd.plugIn(d.in);

    std::vector<Component *> comps{&a, &b, &c, &d};
    std::vector<Connection *> conns{&ab, &bc, &cd};
    DomainPartition stat = partitionDomains(comps, conns, 2);
    DomainPartition weighted =
        partitionDomains(comps, conns, 2, {}, {});
    EXPECT_EQ(stat.numDomains, weighted.numDomains);
    for (Component *comp : comps)
        EXPECT_EQ(stat.domainOf.at(comp), weighted.domainOf.at(comp));
}

TEST(DomainPartitionerWeighted, HeavyComponentsAreSpread)
{
    // A and C are hot; the balance cap (125% of ideal) keeps the two
    // heavyweights apart, where the unweighted cut packs {A,B,C}
    // together by index order.
    SerialEngine host;
    Node a(&host, "A", 4), b(&host, "B", 4), c(&host, "C", 4),
        d(&host, "D", 4);
    DirectConnection ab(&host, "AB", kNanosecond);
    ab.plugIn(a.in);
    ab.plugIn(b.in);
    DirectConnection bc(&host, "BC", kNanosecond);
    bc.plugIn(b.in);
    bc.plugIn(c.in);
    DirectConnection cd(&host, "CD", kNanosecond);
    cd.plugIn(c.in);
    cd.plugIn(d.in);

    std::vector<Component *> comps{&a, &b, &c, &d};
    std::vector<Connection *> conns{&ab, &bc, &cd};

    DomainPartition stat = partitionDomains(comps, conns, 2);
    EXPECT_EQ(stat.domainOf.at(&a), stat.domainOf.at(&c));

    DomainPartition part = partitionDomains(comps, conns, 2, {},
                                            {100, 1, 100, 1});
    EXPECT_EQ(part.numDomains, 2);
    EXPECT_NE(part.domainOf.at(&a), part.domainOf.at(&c));
}

TEST(DomainPartitionerWeighted, ZeroLatencyEdgesStillNeverCut)
{
    // Both heavyweights sit on a zero-latency wire: inseparable no
    // matter what the balance cap says.
    SerialEngine host;
    Node a(&host, "A", 4), b(&host, "B", 4), c(&host, "C", 4),
        d(&host, "D", 4);
    DirectConnection ab(&host, "AB", 0);
    ab.plugIn(a.in);
    ab.plugIn(b.in);
    DirectConnection bc(&host, "BC", 10 * kNanosecond);
    bc.plugIn(b.in);
    bc.plugIn(c.in);
    DirectConnection cd(&host, "CD", 10 * kNanosecond);
    cd.plugIn(c.in);
    cd.plugIn(d.in);

    std::vector<Component *> comps{&a, &b, &c, &d};
    std::vector<Connection *> conns{&ab, &bc, &cd};
    DomainPartition part = partitionDomains(comps, conns, 2, {},
                                            {100, 100, 1, 1});
    EXPECT_EQ(part.numDomains, 2);
    EXPECT_EQ(part.domainOf.at(&a), part.domainOf.at(&b));
    for (const auto &e : part.edges)
        EXPECT_GT(e.lookahead, 0u);
}

TEST(DomainPartitionerWeighted, PinsWinOverWeights)
{
    SerialEngine host;
    Node a(&host, "A", 4), b(&host, "B", 4), c(&host, "C", 4);
    DirectConnection ab(&host, "AB", 5 * kNanosecond);
    ab.plugIn(a.in);
    ab.plugIn(b.in);
    DirectConnection bc(&host, "BC", 5 * kNanosecond);
    bc.plugIn(b.in);
    bc.plugIn(c.in);

    std::vector<Component *> comps{&a, &b, &c};
    std::vector<Connection *> conns{&ab, &bc};
    std::unordered_map<const Component *, int> pins{{&a, 1}, {&c, 1}};
    // The weights scream "separate A and C" but the pins say no.
    DomainPartition part = partitionDomains(comps, conns, 2, pins,
                                            {100, 1, 100});
    EXPECT_EQ(part.domainOf.at(&a), 1);
    EXPECT_EQ(part.domainOf.at(&c), 1);
}

// ---- Adaptive repartitioning ----

namespace
{

/** Ring-capable forwarder: separate In/Out ports so node i can send
 * to node i+1 while also receiving from node i-1. Records the values
 * it drains, at a configurable rate (for backpressure). */
class FwdNode : public TickingComponent
{
  public:
    FwdNode(Engine *engine, const std::string &name,
            std::size_t buf_cap)
        : TickingComponent(engine, name, Freq::ghz(1))
    {
        in = addPort("In", buf_cap);
        out = addPort("Out", 16);
    }

    bool
    tick() override
    {
        bool progress = false;
        while (!outbox.empty()) {
            MsgPtr m = outbox.front();
            m->dst = next;
            if (out->send(m) != SendStatus::Ok)
                break;
            outbox.erase(outbox.begin());
            progress = true;
        }
        for (std::size_t i = 0; i < drainPerTick; i++) {
            MsgPtr m = in->retrieveIncoming();
            if (m == nullptr)
                break;
            received.push_back(msgCast<TestMsg>(m)->value);
            progress = true;
        }
        return progress;
    }

    Port *in = nullptr;
    Port *out = nullptr;
    Port *next = nullptr;
    std::vector<MsgPtr> outbox;
    std::vector<int> received;
    std::size_t drainPerTick = 4;
};

/** An unpinned ring of `n` forwarders on long-latency wires, where
 * node i sends to node i+1: the repartition rigs. The equal-latency
 * static cut packs nodes 0..n-3 into domain 0, so any hotspot on the
 * low nodes is maximally imbalanced until the engine re-cuts. */
struct RepartRing
{
    RepartRing(Engine &eng, int n, std::size_t buf_cap = 16)
    {
        for (int i = 0; i < n; i++) {
            nodes.push_back(std::make_unique<FwdNode>(
                &eng, "R" + std::to_string(i), buf_cap));
        }
        for (int i = 0; i < n; i++) {
            int j = (i + 1) % n;
            wires.push_back(std::make_unique<DirectConnection>(
                &eng, "W" + std::to_string(i), 500 * kNanosecond));
            wires.back()->plugIn(
                nodes[static_cast<std::size_t>(i)]->out);
            wires.back()->plugIn(
                nodes[static_cast<std::size_t>(j)]->in);
            nodes[static_cast<std::size_t>(i)]->next =
                nodes[static_cast<std::size_t>(j)]->in;
        }
    }

    FwdNode &operator[](std::size_t i) { return *nodes[i]; }

    std::vector<std::unique_ptr<FwdNode>> nodes;
    std::vector<std::unique_ptr<DirectConnection>> wires;
};

/** Eager trigger settings so small test workloads repartition. */
void
eagerRepartition(DomainEngine &eng)
{
    eng.setRepartition(true);
    eng.setRepartitionThreshold(1.1);
    eng.setRepartitionCooldown(0);
    eng.setRepartitionMinEvents(16);
}

} // namespace

TEST(DomainRepartition, CrossDomainFifoPreservedAcrossRepartition)
{
    // Alternating hotspots force migrations between phases while
    // senders push seq-numbered messages through two-slot receiver
    // buffers (backpressure wakes cross every cut). Delivery order
    // per sender must stay FIFO through every migration.
    DomainEngine eng(2);
    RepartRing ring(eng, 4, 2);
    eagerRepartition(eng);
    ring[1].drainPerTick = 1;
    ring[3].drainPerTick = 1;

    int seq01 = 0, seq23 = 0;
    for (int phase = 0; phase < 6; phase++) {
        FwdNode &hot = phase % 2 == 0 ? ring[0] : ring[2];
        int &seq = phase % 2 == 0 ? seq01 : seq23;
        for (int i = 0; i < 20; i++)
            hot.outbox.push_back(makeMsg<TestMsg>(seq++));
        hot.tickLater();
        ASSERT_EQ(eng.run(), RunResult::Drained) << "phase " << phase;
    }

    EXPECT_GE(eng.repartitionCount(), 1u)
        << "the alternating hotspot must trigger at least one re-cut";
    ASSERT_EQ(ring[1].received.size(),
              static_cast<std::size_t>(seq01));
    for (int i = 0; i < seq01; i++)
        EXPECT_EQ(ring[1].received[static_cast<std::size_t>(i)], i);
    ASSERT_EQ(ring[3].received.size(),
              static_cast<std::size_t>(seq23));
    for (int i = 0; i < seq23; i++)
        EXPECT_EQ(ring[3].received[static_cast<std::size_t>(i)], i);
}

TEST(DomainRepartition, MidRunRecutRebuildsRingsWithoutLosingMessages)
{
    // A waitWhenEmpty drain boundary is the live re-cut point: the
    // engine migrates components without ever leaving run(), and must
    // rebuild the per-edge SPSC mailbox rings for the new cut —
    // flushing any ring residue into the migration so nothing is lost.
    // Seq-numbered traffic spanning several live re-cuts proves no
    // message is dropped or reordered, and the ring capacity surfaced
    // by domainStatus() must track the rebuilt in-edge sets.
    DomainEngine eng(2);
    RepartRing ring(eng, 4, 2);
    eagerRepartition(eng);
    eng.setWaitWhenEmpty(true);
    ring[1].drainPerTick = 1;
    ring[3].drainPerTick = 1;

    class DrainHook : public Hook
    {
      public:
        void
        func(HookCtx &ctx) override
        {
            if (ctx.pos == &hookPosQueueDrained)
                drained++;
        }

        std::atomic<int> drained{0};
    };
    DrainHook hook;
    eng.acceptHook(&hook);

    std::thread runner([&]() { eng.run(); });
    auto waitDrains = [&](int target) {
        while (hook.drained.load() < target)
            std::this_thread::yield();
    };

    // The empty engine drains once immediately; each injection then
    // revives it for exactly one more drain (and one more mid-run
    // repartition opportunity). The hook fires before the boundary's
    // repartition, so additionally wait for drainedWaiting() — set
    // after it — or an eager injection could abort the re-cut by
    // failing its quiescence re-verify.
    constexpr int kPhases = 6;
    int seq01 = 0, seq23 = 0;
    for (int phase = 0; phase < kPhases; phase++) {
        waitDrains(phase + 1);
        while (!eng.drainedWaiting())
            std::this_thread::yield();
        FwdNode &hot = phase % 2 == 0 ? ring[0] : ring[2];
        int &seq = phase % 2 == 0 ? seq01 : seq23;
        for (int i = 0; i < 20; i++)
            hot.outbox.push_back(makeMsg<TestMsg>(seq++));
        hot.tickLater();
    }
    waitDrains(kPhases + 1);
    eng.stop();
    runner.join();

    EXPECT_GE(eng.repartitionCount(), 1u)
        << "the alternating hotspot must re-cut mid-run";

    // No message lost or reordered across any live re-cut.
    ASSERT_EQ(ring[1].received.size(),
              static_cast<std::size_t>(seq01));
    for (int i = 0; i < seq01; i++)
        EXPECT_EQ(ring[1].received[static_cast<std::size_t>(i)], i);
    ASSERT_EQ(ring[3].received.size(),
              static_cast<std::size_t>(seq23));
    for (int i = 0; i < seq23; i++)
        EXPECT_EQ(ring[3].received[static_cast<std::size_t>(i)], i);

    // The rings were rebuilt for the adopted cut: summed ring capacity
    // equals one full-size ring per current cross-domain edge, and
    // every ring drained dry at the final boundary.
    std::size_t caps = 0, occ = 0;
    for (int i = 0; i < eng.numDomains(); i++) {
        caps += eng.domainStatus(i).ringCapacity;
        occ += eng.domainStatus(i).ringOccupancy;
    }
    EXPECT_EQ(caps, eng.edgeInfos().size() * 256)
        << "per-edge rings must match the live edge set after re-cut";
    EXPECT_EQ(occ, 0u);
}

TEST(DomainRepartition, PinnedComponentsNeverMove)
{
    DomainEngine eng(2);
    RepartRing ring(eng, 5);
    eng.pinComponent(&ring[0], 0);
    eng.pinComponent(&ring[4], 1);
    eagerRepartition(eng);

    for (int phase = 0; phase < 6; phase++) {
        FwdNode &hot = phase % 2 == 0 ? ring[0] : ring[2];
        for (int i = 0; i < 24; i++)
            hot.outbox.push_back(makeMsg<TestMsg>(i));
        hot.tickLater();
        ASSERT_EQ(eng.run(), RunResult::Drained) << "phase " << phase;
        EXPECT_EQ(eng.domainOfComponent(&ring[0]), 0)
            << "pinned component moved at phase " << phase;
        EXPECT_EQ(eng.domainOfComponent(&ring[4]), 1)
            << "pinned component moved at phase " << phase;
    }
    EXPECT_GE(eng.repartitionCount(), 1u);
    EXPECT_EQ(eng.domainOfComponent(nullptr), -1);
}

TEST(DomainRepartition, ConvergesWithoutThrashing)
{
    // A fixed hotspot: after the engine adapts to it once, every later
    // window looks the same, so candidates stop improving and the
    // hysteresis gate must reject them instead of ping-ponging.
    DomainEngine eng(2);
    RepartRing ring(eng, 4);
    eagerRepartition(eng);

    for (int phase = 0; phase < 10; phase++) {
        for (int i = 0; i < 24; i++)
            ring[0].outbox.push_back(makeMsg<TestMsg>(i));
        ring[0].tickLater();
        ASSERT_EQ(eng.run(), RunResult::Drained) << "phase " << phase;
    }
    EXPECT_GE(eng.repartitionCount(), 1u);
    EXPECT_LE(eng.repartitionCount(), 3u)
        << "a steady workload must converge, not thrash";

    // The history carries one entry per adoption, newest last, and
    // each records an imbalance the adoption improved.
    auto events = eng.repartitionEvents();
    ASSERT_EQ(events.size(), eng.repartitionCount());
    for (const auto &ev : events) {
        EXPECT_GT(ev.migrated, 0);
        EXPECT_LT(ev.imbalanceAfter, ev.imbalanceBefore);
    }
}

TEST(DomainRepartition, NoRepartitionAfterStoppedRun)
{
    // A Stopped run abandons events in per-domain queues and leaves
    // clocks unsynchronized; migration only re-routes mailboxes, so
    // the run()-entry evaluation must skip such a boundary even when
    // the cost window screams imbalance. (Regression: adopting here
    // executed a moved component's leftover queue events in its old
    // domain while new events routed to the new one.)
    class StopHandler : public EventHandler
    {
      public:
        explicit StopHandler(Engine *e) : eng_(e) {}
        void handle(Event &) override { eng_->stop(); }
        std::string handlerName() const override { return "stop"; }

      private:
        Engine *eng_;
    };

    DomainEngine eng(2);
    RepartRing ring(eng, 4);
    eagerRepartition(eng);
    // Pin the stop away from the hot pair (external schedules would
    // otherwise land in domain 0 with it).
    StopHandler stopH(&eng);
    eng.assignHandler(&stopH, 1);
    eng.partition();
    // The equal-latency static cut co-locates R0 and R1 opposite the
    // stop's domain — the precondition for a weight-seeded candidate
    // that splits the hot pair.
    ASSERT_EQ(eng.domainOfComponent(&ring[0]),
              eng.domainOfComponent(&ring[1]));
    ASSERT_NE(eng.domainOfComponent(&ring[0]),
              eng.domainOfComponent(&ring[3]));

    // R0 floods R1 (intra-domain: sends at 1..60 ns, deliveries at
    // 501..560 ns) while the stop's domain sits idle. The stop is at
    // 1020 ns: its domain's safe window is the hot domain's horizon
    // plus the 500 ns edge lookahead, so it cannot execute until the
    // hot domain passed 520 ns — all 60 sends plus a batch of
    // deliveries are in the cost window (well past the 16-event
    // floor, max/mean ~2, weight spread over two movable components
    // so a re-cut genuinely improves).
    for (int i = 0; i < 60; i++)
        ring[0].outbox.push_back(makeMsg<TestMsg>(i));
    ring[0].tickLater();
    eng.schedule(
        std::make_unique<Event>(1020 * kNanosecond, &stopH));
    ASSERT_EQ(eng.run(), RunResult::Stopped);

    // Resuming from the stopped state must not adopt a new cut at
    // entry (adoption only ever happens at run() entry here), and the
    // resumed run must deliver everything in order.
    ASSERT_EQ(eng.run(), RunResult::Drained);
    EXPECT_EQ(eng.repartitionCount(), 0u)
        << "repartitioned across a Stopped (non-drained) boundary";
    ASSERT_EQ(ring[1].received.size(), 60u);
    for (int i = 0; i < 60; i++)
        EXPECT_EQ(ring[1].received[static_cast<std::size_t>(i)], i);
}

TEST(DomainRepartition, LateRegisteredComponentKeepsRoutingAcrossRepartition)
{
    // A component registered after the partition is fixed is pinned to
    // domain 0 by noteComponent; the adopted cut must carry that
    // mapping, not orphan it to the scheduling-worker fallback.
    DomainEngine eng(2);
    RepartRing ring(eng, 4);
    eagerRepartition(eng);
    eng.partition(); // Fix the cut: anything registered now is late.
    FwdNode late(&eng, "Late", 16);
    ASSERT_EQ(eng.domainOfComponent(&late), 0);

    for (int phase = 0; phase < 6; phase++) {
        FwdNode &hot = phase % 2 == 0 ? ring[0] : ring[2];
        for (int i = 0; i < 24; i++)
            hot.outbox.push_back(makeMsg<TestMsg>(i));
        hot.tickLater();
        ASSERT_EQ(eng.run(), RunResult::Drained) << "phase " << phase;
    }
    ASSERT_GE(eng.repartitionCount(), 1u);
    EXPECT_EQ(eng.domainOfComponent(&late), 0)
        << "late registration lost its routing entry in the rebuild";
}

TEST(DomainRepartition, DisabledEngineKeepsStaticCutAndZeroCost)
{
    DomainEngine eng(2);
    RepartRing ring(eng, 4);
    // Repartition off (the default): no cost tracking, no history.
    for (int phase = 0; phase < 4; phase++) {
        for (int i = 0; i < 24; i++)
            ring[0].outbox.push_back(makeMsg<TestMsg>(i));
        ring[0].tickLater();
        ASSERT_EQ(eng.run(), RunResult::Drained);
    }
    EXPECT_FALSE(eng.repartitionEnabled());
    EXPECT_EQ(eng.repartitionCount(), 0u);
    EXPECT_EQ(eng.migratedComponents(), 0u);
    EXPECT_TRUE(eng.repartitionEvents().empty());
    for (int i = 0; i < eng.numDomains(); i++)
        EXPECT_EQ(eng.domainStatus(i).cost, 0u);
}

TEST(DomainRepartition, OneDomainWithRepartitionMatchesSerialOrder)
{
    // With one domain the trigger can never fire and the event order
    // must stay bit-identical to the serial engine even with tracking
    // enabled — the "off/1-domain is a no-op" half of the invariant.
    SerialEngine serial;
    OrderHook serialHook;
    serial.acceptHook(&serialHook);
    auto serialHandlers = buildScenario(serial);
    EXPECT_EQ(serial.run(), RunResult::Drained);

    DomainEngine dom(1);
    eagerRepartition(dom);
    OrderHook domHook;
    dom.acceptHook(&domHook);
    auto domHandlers = buildScenario(dom);
    EXPECT_EQ(dom.run(), RunResult::Drained);

    EXPECT_EQ(dom.repartitionCount(), 0u);
    auto a = normalize(serialHook.order, serialHandlers);
    auto b = normalize(domHook.order, domHandlers);
    EXPECT_EQ(a, b) << "1-domain + repartition diverged from serial";
}

TEST(DomainRepartition, EndStateMatchesSerialOnRing)
{
    // Same phased hotspot on the serial engine and on an adaptively
    // repartitioned 2-domain engine: identical delivered data, event
    // count, and final virtual time — repartitioning may only move
    // the schedule, never the results.
    auto driveRing = [](Engine &eng, RepartRing &ring) {
        std::vector<std::vector<int>> rx;
        int seq = 0;
        for (int phase = 0; phase < 6; phase++) {
            FwdNode &hot = ring[static_cast<std::size_t>(
                (phase % 2) * 2)];
            for (int i = 0; i < 16; i++)
                hot.outbox.push_back(makeMsg<TestMsg>(seq++));
            hot.tickLater();
            EXPECT_EQ(eng.run(), RunResult::Drained);
        }
        for (auto &n : ring.nodes)
            rx.push_back(n->received);
        return rx;
    };

    SerialEngine serial;
    RepartRing sring(serial, 4);
    auto serialRx = driveRing(serial, sring);

    DomainEngine dom(2);
    RepartRing ring(dom, 4);
    eagerRepartition(dom);
    auto domRx = driveRing(dom, ring);

    EXPECT_GE(dom.repartitionCount(), 1u);
    EXPECT_EQ(domRx, serialRx);
    EXPECT_EQ(dom.now(), serial.now());
}

TEST(DomainRepartition, PlatformRunCompletesWithRepartition)
{
    // The mcm4 platform with adaptive repartitioning enabled through
    // the config surface must still complete kernels (end state equal
    // to the serial run of PlatformRunMatchesSerialCompletion).
    auto cfg = gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());
    cfg.engineKind = gpu::EngineKind::Domain;
    cfg.domains = 4;
    cfg.repartition = true;
    cfg.repartitionThreshold = 1.1;
    cfg.repartitionCooldown = 0;
    cfg.repartitionMinEvents = 64;
    gpu::Platform plat(cfg);
    auto *de = dynamic_cast<DomainEngine *>(&plat.engine());
    ASSERT_NE(de, nullptr);
    EXPECT_TRUE(de->repartitionEnabled());

    auto k = smallKernel(16);
    plat.launchKernel(&k);
    ASSERT_EQ(plat.run(), gpu::Platform::RunStatus::Completed);
    EXPECT_GT(plat.engine().now(), 0u);
    EXPECT_GT(plat.engine().eventCount(), 0u);
}

TEST(DomainRepartition, ApplyEngineArgsParsesRepartitionFlags)
{
    gpu::PlatformConfig cfg;
    const char *argvConst[] = {"prog",
                               "--engine=domain",
                               "--domains=4",
                               "--repartition=time",
                               "--repartition-threshold=2.5",
                               "--repartition-cooldown=5",
                               "--repartition-min-events=9999"};
    gpu::applyEngineArgs(cfg, 7, const_cast<char **>(argvConst));
    EXPECT_TRUE(cfg.repartition);
    EXPECT_TRUE(cfg.repartitionTime);
    EXPECT_DOUBLE_EQ(cfg.repartitionThreshold, 2.5);
    EXPECT_EQ(cfg.repartitionCooldown, 5);
    EXPECT_EQ(cfg.repartitionMinEvents, 9999u);

    const char *argvOff[] = {"prog", "--repartition=off"};
    gpu::applyEngineArgs(cfg, 2, const_cast<char **>(argvOff));
    EXPECT_FALSE(cfg.repartition);
}

TEST(DomainRepartition, DomainsEndpointServesCostAndHistory)
{
    // /api/v1/domains now reports per-domain cost, the imbalance
    // gauge, and the repartition history — and sits behind the
    // coalesced cache (ETag + 304, x-akita-no-cache bypass).
    DomainEngine eng(2);
    RepartRing ring(eng, 4);
    eagerRepartition(eng);
    for (int phase = 0; phase < 4; phase++) {
        FwdNode &hot = phase % 2 == 0 ? ring[0] : ring[2];
        for (int i = 0; i < 24; i++)
            hot.outbox.push_back(makeMsg<TestMsg>(i));
        hot.tickLater();
        ASSERT_EQ(eng.run(), RunResult::Drained);
    }
    ASSERT_GE(eng.repartitionCount(), 1u);

    rtm::MonitorConfig mcfg;
    mcfg.announceUrl = false;
    mcfg.domainsTtlFloorMs = 60 * 1000; // One build for this test.
    rtm::Monitor mon(mcfg);
    mon.registerEngine(&eng);
    ASSERT_TRUE(mon.startServer());

    web::PersistentClient client("127.0.0.1", mon.serverPort());
    auto first = client.get("/api/v1/domains");
    ASSERT_TRUE(first.has_value());
    ASSERT_EQ(first->status, 200);
    ASSERT_TRUE(first->headers.count("etag"));

    json::Json doc = json::Json::parse(first->body);
    EXPECT_EQ(doc.getInt("num_domains", 0), 2);
    EXPECT_TRUE(doc.getBool("repartition_enabled", false));
    EXPECT_GE(doc.getInt("repartitions", 0), 1);
    EXPECT_GT(doc.getNumber("imbalance", 0), 0.0);
    // Cost windows reset at evaluations, so only the tail window is
    // visible — but the field must be present on every domain.
    for (const auto &dom : doc.get("domains")->items())
        EXPECT_NE(dom.get("cost"), nullptr);
    const json::Json *history = doc.get("repartition_events");
    ASSERT_NE(history, nullptr);
    ASSERT_FALSE(history->items().empty());
    const json::Json &ev = history->items().front();
    EXPECT_GE(ev.getInt("seq", 0), 1);
    EXPECT_GT(ev.getInt("migrated", 0), 0);
    EXPECT_GT(ev.getNumber("imbalance_before", 0),
              ev.getNumber("imbalance_after", 0));

    // Replaying the ETag within the TTL gets a 304.
    auto second = client.get(
        "/api/v1/domains",
        {{"If-None-Match", first->headers.at("etag")}});
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->status, 304);

    // The bypass header skips the cache and carries no validator.
    auto third =
        client.get("/api/v1/domains", {{"x-akita-no-cache", "1"}});
    ASSERT_TRUE(third.has_value());
    EXPECT_EQ(third->status, 200);
    EXPECT_FALSE(third->headers.count("etag"));
}
