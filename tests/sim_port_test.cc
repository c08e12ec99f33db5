/**
 * @file
 * Unit and property tests for buffers, ports, connections, and ticking
 * components — the message-passing substrate whose backpressure makes
 * the buffer analyzer meaningful.
 */

#include <gtest/gtest.h>

#include "sim/sim.hh"

using namespace akita::sim;

namespace
{

/** Minimal message type with a payload for identity checks. */
class TestMsg : public Msg
{
  public:
    static constexpr MsgKind kKind = MsgKind::TestA;

    explicit TestMsg(int v) : Msg(kKind), value(v) {}

    const char *kind() const override { return "TestMsg"; }

    int value;
};

MsgPtr
mkMsg(int v)
{
    return makeMsg<TestMsg>(v);
}

} // namespace

TEST(Buffer, PushPopFifo)
{
    Buffer buf("b", 4);
    buf.push(mkMsg(1));
    buf.push(mkMsg(2));
    EXPECT_EQ(buf.size(), 2u);
    EXPECT_EQ(msgCast<TestMsg>(buf.pop())->value, 1);
    EXPECT_EQ(msgCast<TestMsg>(buf.pop())->value, 2);
    EXPECT_EQ(buf.pop(), nullptr);
}

TEST(Buffer, CapacityEnforced)
{
    Buffer buf("b", 2);
    buf.push(mkMsg(1));
    buf.push(mkMsg(2));
    EXPECT_TRUE(buf.full());
    EXPECT_FALSE(buf.canPush());
    EXPECT_THROW(buf.push(mkMsg(3)), std::runtime_error);
}

TEST(Buffer, StatsTrackPeakAndTotal)
{
    Buffer buf("b", 4);
    buf.push(mkMsg(1));
    buf.push(mkMsg(2));
    buf.push(mkMsg(3));
    buf.pop();
    buf.pop();
    buf.push(mkMsg(4));
    EXPECT_EQ(buf.totalPushed(), 4u);
    EXPECT_EQ(buf.peakSize(), 3u);
    EXPECT_DOUBLE_EQ(buf.fullness(), 0.5);
}

TEST(Buffer, PopMatchingBypassesHeadOfLine)
{
    Buffer buf("b", 4);
    buf.push(mkMsg(10));
    buf.push(mkMsg(20));
    buf.push(mkMsg(30));
    MsgPtr m = buf.popMatching([](const Msg &msg) {
        return static_cast<const TestMsg &>(msg).value == 20;
    });
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(msgCast<TestMsg>(m)->value, 20);
    EXPECT_EQ(buf.size(), 2u);
    EXPECT_EQ(msgCast<TestMsg>(buf.peek())->value, 10);
    EXPECT_EQ(buf.popMatching([](const Msg &) { return false; }),
              nullptr);
}

TEST(Buffer, InspectableFields)
{
    Buffer buf("GPU[0].X.TopPort.Buf", 8);
    buf.push(mkMsg(1));
    EXPECT_EQ(buf.fields().find("size")->getter().intVal(), 1);
    EXPECT_EQ(buf.fields().find("capacity")->getter().intVal(), 8);
}

namespace
{

/**
 * A scripted component for port tests: it retrieves everything
 * delivered to its port and re-sends queued outgoing messages.
 */
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
        // Send queued messages.
        while (!outbox.empty()) {
            MsgPtr m = outbox.front();
            m->dst = target;
            if (in->send(m) != SendStatus::Ok)
                break;
            outbox.erase(outbox.begin());
            sent++;
            progress = true;
        }
        // Drain incoming at the configured rate.
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
    int sent = 0;
};

} // namespace

TEST(PortConnection, DeliversWithLatency)
{
    SerialEngine eng;
    Node a(&eng, "A", 4), b(&eng, "B", 4);
    DirectConnection conn(&eng, "Conn", 5 * kNanosecond);
    conn.plugIn(a.in);
    conn.plugIn(b.in);

    a.target = b.in;
    a.outbox.push_back(mkMsg(42));
    a.tickLater();
    eng.run();

    ASSERT_EQ(b.received.size(), 1u);
    EXPECT_EQ(b.received[0], 42);
}

TEST(PortConnection, MessagesArriveInSendOrder)
{
    SerialEngine eng;
    Node a(&eng, "A", 16), b(&eng, "B", 16);
    DirectConnection conn(&eng, "Conn", kNanosecond);
    conn.plugIn(a.in);
    conn.plugIn(b.in);
    a.target = b.in;
    for (int i = 0; i < 10; i++)
        a.outbox.push_back(mkMsg(i));
    a.tickLater();
    eng.run();
    ASSERT_EQ(b.received.size(), 10u);
    for (int i = 0; i < 10; i++)
        EXPECT_EQ(b.received[i], i);
}

TEST(PortConnection, BackpressureAndWakeRecovery)
{
    SerialEngine eng;
    Node a(&eng, "A", 4), b(&eng, "B", 2);
    DirectConnection conn(&eng, "Conn", kNanosecond);
    conn.plugIn(a.in);
    conn.plugIn(b.in);
    a.target = b.in;
    b.drainPerTick = 1; // B drains slower than A sends.
    for (int i = 0; i < 20; i++)
        a.outbox.push_back(mkMsg(i));
    a.tickLater();
    eng.run();

    // Despite B's two-slot buffer, every message must arrive exactly
    // once and in order (conservation under backpressure).
    ASSERT_EQ(b.received.size(), 20u);
    for (int i = 0; i < 20; i++)
        EXPECT_EQ(b.received[i], i);
    EXPECT_GT(a.in->totalSendRejections(), 0u);
}

TEST(PortConnection, ReservationPreventsOverflow)
{
    // Even with zero drain, in-flight messages must never overflow the
    // destination buffer (capacity is reserved at send time).
    SerialEngine eng;
    Node a(&eng, "A", 4), b(&eng, "B", 3);
    DirectConnection conn(&eng, "Conn", 100 * kNanosecond);
    conn.plugIn(a.in);
    conn.plugIn(b.in);
    a.target = b.in;
    b.drainPerTick = 0;
    for (int i = 0; i < 10; i++)
        a.outbox.push_back(mkMsg(i));
    a.tickLater();
    eng.run();
    EXPECT_EQ(b.in->buf().size(), 3u);
    EXPECT_EQ(a.sent, 3);
}

TEST(PortConnection, SendWithoutConnectionThrows)
{
    SerialEngine eng;
    Node a(&eng, "A", 4), b(&eng, "B", 4);
    MsgPtr m = mkMsg(1);
    m->dst = b.in;
    EXPECT_THROW(a.in->send(m), std::runtime_error);
}

TEST(PortConnection, SendWithoutDestinationThrows)
{
    SerialEngine eng;
    Node a(&eng, "A", 4);
    DirectConnection conn(&eng, "Conn", 0);
    conn.plugIn(a.in);
    EXPECT_THROW(a.in->send(mkMsg(1)), std::runtime_error);
}

TEST(PortConnection, UnreachableDestinationThrows)
{
    SerialEngine eng;
    Node a(&eng, "A", 4), b(&eng, "B", 4);
    DirectConnection c1(&eng, "C1", 0), c2(&eng, "C2", 0);
    c1.plugIn(a.in);
    c2.plugIn(b.in);
    MsgPtr m = mkMsg(1);
    m->dst = b.in;
    EXPECT_THROW(a.in->send(m), std::runtime_error);
}

TEST(Port, FailedSendRestoresSource)
{
    // A component that forwards a message it received must still see
    // the original src when a send fails and it re-peeks the message.
    SerialEngine eng;
    Node a(&eng, "A", 4), b(&eng, "B", 1), c(&eng, "C", 1);
    DirectConnection conn(&eng, "Conn", 0);
    conn.plugIn(a.in);
    conn.plugIn(b.in);
    conn.plugIn(c.in);

    // Fill C's single slot so the next send is rejected.
    MsgPtr fill = mkMsg(0);
    fill->dst = c.in;
    ASSERT_EQ(a.in->send(fill), SendStatus::Ok);

    MsgPtr m = mkMsg(7);
    m->src = b.in; // Simulates "received from B".
    m->dst = c.in;
    EXPECT_EQ(a.in->send(m), SendStatus::Busy);
    EXPECT_EQ(m->src, b.in); // Restored, not clobbered to a.in.
}

namespace
{

/** Counts its own destructions, to catch a refcount slip. */
class CountedMsg : public Msg
{
  public:
    explicit CountedMsg(int *destroyed) : destroyed_(destroyed) {}

    ~CountedMsg() override { ++*destroyed_; }

  private:
    int *destroyed_;
};

/** A Node that counts wake() calls. */
class WakeCountingNode : public Node
{
  public:
    using Node::Node;

    void
    wake() override
    {
        wakes++;
        Node::wake();
    }

    int wakes = 0;
};

} // namespace

TEST(Port, RepeatedBusySendsRegisterOnceAndDeliverOnce)
{
    // A sender retrying against a full port: every rejection restores
    // src and is counted, the sender is registered once and woken once,
    // and the message is delivered once and freed once.
    SerialEngine eng;
    WakeCountingNode a(&eng, "A", 4);
    Node b(&eng, "B", 4), c(&eng, "C", 1);
    DirectConnection conn(&eng, "Conn", kNanosecond);
    conn.plugIn(a.in);
    conn.plugIn(b.in);
    conn.plugIn(c.in);
    c.drainPerTick = 0; // The test retrieves from C by hand.

    MsgPtr fill = mkMsg(0);
    fill->dst = c.in;
    ASSERT_EQ(a.in->send(fill), SendStatus::Ok);

    int destroyed = 0;
    MsgPtr m = makeMsg<CountedMsg>(&destroyed);
    m->src = b.in; // Simulates "received from B".
    m->dst = c.in;
    constexpr int kTries = 5;
    for (int i = 0; i < kTries; i++) {
        ASSERT_EQ(a.in->send(m), SendStatus::Busy);
        EXPECT_EQ(m->src, b.in);
        EXPECT_EQ(a.in->totalSendRejections(),
                  static_cast<std::uint64_t>(i + 1));
    }
    EXPECT_EQ(destroyed, 0);
    EXPECT_EQ(a.in->totalSent(), 1u);
    EXPECT_EQ(c.in->blockedSenders(), std::vector<Component *>{&a});

    eng.run(); // Delivers the fill message into C's one slot.
    ASSERT_EQ(c.in->buf().size(), 1u);
    a.wakes = 0;
    ASSERT_NE(c.in->retrieveIncoming(), nullptr);
    EXPECT_EQ(a.wakes, 1);
    EXPECT_TRUE(c.in->blockedSenders().empty());

    ASSERT_EQ(a.in->send(m), SendStatus::Ok);
    EXPECT_EQ(m->src, a.in);
    EXPECT_EQ(a.in->totalSendRejections(),
              static_cast<std::uint64_t>(kTries));
    eng.run();
    MsgPtr got = c.in->retrieveIncoming();
    EXPECT_EQ(got, m);
    EXPECT_EQ(c.in->retrieveIncoming(), nullptr);
    EXPECT_EQ(c.in->totalReceived(), 2u);
    EXPECT_EQ(a.wakes, 1); // The registration was consumed by one wake.

    got = nullptr;
    EXPECT_EQ(destroyed, 0);
    m = nullptr;
    EXPECT_EQ(destroyed, 1);
}

TEST(Ticking, SleepsWithoutWorkAndWakesOnDelivery)
{
    SerialEngine eng;
    Node a(&eng, "A", 4), b(&eng, "B", 4);
    DirectConnection conn(&eng, "Conn", kNanosecond);
    conn.plugIn(a.in);
    conn.plugIn(b.in);
    a.target = b.in;
    a.tickLater();
    eng.run(); // A has nothing to do: ticks once, sleeps.
    EXPECT_TRUE(a.asleep());
    std::uint64_t ticksBefore = b.totalTicks();

    // Delivery wakes B.
    a.outbox.push_back(mkMsg(1));
    a.wake();
    eng.run();
    EXPECT_EQ(b.received.size(), 1u);
    EXPECT_GT(b.totalTicks(), ticksBefore);
}

TEST(Ticking, ProgressCountsTracked)
{
    SerialEngine eng;
    Node a(&eng, "A", 4);
    a.tickLater();
    eng.run();
    EXPECT_EQ(a.totalTicks(), 1u);
    EXPECT_EQ(a.progressTicks(), 0u);
}

TEST(Ticking, ScheduleTickAtDeduplicatesSameCycle)
{
    SerialEngine eng;

    class Counter : public TickingComponent
    {
      public:
        Counter(Engine *e)
            : TickingComponent(e, "Counter", Freq::ghz(1))
        {
        }

        bool
        tick() override
        {
            ticks++;
            return false;
        }

        int ticks = 0;
    } c(&eng);

    // Multiple schedules landing on the same cycle must tick once.
    c.scheduleTickAt(5000);
    c.scheduleTickAt(5000);
    c.scheduleTickAt(2000); // An earlier one is allowed in addition.
    eng.run();
    EXPECT_EQ(c.ticks, 2); // Once at 2000, once at 5000.
}

TEST(Component, PortAndBufferEnumeration)
{
    SerialEngine eng;
    Node a(&eng, "GPU[0].X", 4);
    Buffer internal("GPU[0].X.Internal.Buf", 2);
    a.registerBuffer(&internal);

    EXPECT_EQ(a.port("In"), a.in);
    EXPECT_EQ(a.port("Nope"), nullptr);
    auto bufs = a.buffers();
    ASSERT_EQ(bufs.size(), 2u);
    EXPECT_EQ(bufs[0]->name(), "GPU[0].X.In.Buf");
    EXPECT_EQ(bufs[1]->name(), "GPU[0].X.Internal.Buf");
}

struct FanParams
{
    std::size_t senders;
    std::size_t bufCap;
    int msgsPerSender;
};

class FanInConservation : public ::testing::TestWithParam<FanParams>
{
};

TEST_P(FanInConservation, NoLossNoDuplication)
{
    // Property: under arbitrary fan-in contention, the receiver gets
    // exactly the multiset of sent messages.
    const FanParams p = GetParam();
    SerialEngine eng;
    DirectConnection conn(&eng, "Conn", kNanosecond);

    Node sink(&eng, "Sink", p.bufCap);
    conn.plugIn(sink.in);
    sink.drainPerTick = 2;

    std::vector<std::unique_ptr<Node>> senders;
    for (std::size_t s = 0; s < p.senders; s++) {
        auto n = std::make_unique<Node>(
            &eng, "S" + std::to_string(s), 2);
        conn.plugIn(n->in);
        n->target = sink.in;
        for (int i = 0; i < p.msgsPerSender; i++)
            n->outbox.push_back(
                mkMsg(static_cast<int>(s) * 1000000 + i));
        n->tickLater();
        senders.push_back(std::move(n));
    }
    eng.run();

    ASSERT_EQ(sink.received.size(), p.senders * p.msgsPerSender);
    std::set<int> uniq(sink.received.begin(), sink.received.end());
    EXPECT_EQ(uniq.size(), sink.received.size()) << "duplicates";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FanInConservation,
    ::testing::Values(FanParams{1, 1, 50}, FanParams{2, 1, 40},
                      FanParams{4, 2, 30}, FanParams{8, 3, 25},
                      FanParams{16, 1, 10}, FanParams{3, 16, 100}));
