/**
 * @file
 * Tests for the hot-path memory model (DESIGN.md §10): the per-thread
 * slab pool (reuse ordering, oversize fallback, cross-thread frees,
 * stats), the intrusive refcounted MsgPtr, and the RTTI-free msgCast
 * kind-tag dispatch.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "rtm/monitor.hh"
#include "sim/sim.hh"

using namespace akita;
using namespace akita::sim;

namespace
{

/** Tagged test message; uses one of the kinds reserved for tests. */
class AlphaMsg : public Msg
{
  public:
    static constexpr MsgKind kKind = MsgKind::TestA;

    explicit AlphaMsg(int v = 0) : Msg(kKind), value(v) { liveCount++; }
    ~AlphaMsg() override { liveCount--; }

    const char *kind() const override { return "Alpha"; }

    int value;
    static int liveCount;
};

int AlphaMsg::liveCount = 0;

/** A second tagged kind, to prove tags do not cross-match. */
class BetaMsg : public Msg
{
  public:
    static constexpr MsgKind kKind = MsgKind::TestB;

    BetaMsg() : Msg(kKind) {}

    const char *kind() const override { return "Beta"; }
};

} // namespace

// ---------------------------------------------------------------------
// Raw pool behavior
// ---------------------------------------------------------------------

TEST(Pool, ReusesFreedBlockLifo)
{
    // Warm the freelist so the allocations below cannot be satisfied by
    // fresh slab carves in some interleavings.
    void *warm = poolAlloc(48);
    poolFree(warm);

    void *a = poolAlloc(48);
    poolFree(a);
    void *b = poolAlloc(48);
    // Same size class, freed last: the freelist hands the block back.
    EXPECT_EQ(b, a);
    poolFree(b);
}

TEST(Pool, DistinctLiveBlocksDoNotAlias)
{
    std::vector<void *> blocks;
    for (int i = 0; i < 100; i++) {
        void *p = poolAlloc(40);
        std::memset(p, i, 40);
        blocks.push_back(p);
    }
    for (int i = 0; i < 100; i++) {
        auto *bytes = static_cast<unsigned char *>(blocks[i]);
        for (int j = 0; j < 40; j++)
            ASSERT_EQ(bytes[j], static_cast<unsigned char>(i));
    }
    for (void *p : blocks)
        poolFree(p);
}

TEST(Pool, OversizeFallsBackToHeap)
{
    PoolStats before = poolStats();
    void *p = poolAlloc(64 * 1024); // Larger than any size class.
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xab, 64 * 1024);
    poolFree(p);
    PoolStats after = poolStats();
    EXPECT_GE(after.oversizeAllocs, before.oversizeAllocs + 1);
}

TEST(Pool, StatsTrackAllocAndFreeDeltas)
{
    PoolStats before = poolStats();
    std::vector<void *> blocks;
    for (int i = 0; i < 64; i++)
        blocks.push_back(poolAlloc(48));
    PoolStats mid = poolStats();
    EXPECT_GE(mid.allocs, before.allocs + 64);
    EXPECT_GE(mid.liveBlocks, 64u);
    EXPECT_GT(mid.slabBytes, 0u);

    for (void *p : blocks)
        poolFree(p);
    PoolStats after = poolStats();
    EXPECT_GE(after.frees, before.frees + 64);
    // Everything this test allocated came back.
    EXPECT_EQ(after.allocs - (after.frees + after.remoteFrees),
              before.allocs - (before.frees + before.remoteFrees));
}

TEST(Pool, CrossThreadFreeTakesRemotePath)
{
    PoolStats before = poolStats();
    void *p = poolAlloc(48);
    std::thread t([p]() { poolFree(p); });
    t.join();
    PoolStats after = poolStats();
    EXPECT_GE(after.remoteFrees, before.remoteFrees + 1);

    // The remotely-freed block is drained back onto the owner's
    // freelist and becomes reusable here.
    std::vector<void *> again;
    for (int i = 0; i < 8; i++)
        again.push_back(poolAlloc(48));
    for (void *q : again)
        poolFree(q);
}

// ---------------------------------------------------------------------
// Intrusive message pointer
// ---------------------------------------------------------------------

TEST(IntrusiveMsg, RefcountSharedAcrossCopies)
{
    ASSERT_EQ(AlphaMsg::liveCount, 0);
    {
        auto a = makeMsg<AlphaMsg>(7);
        EXPECT_EQ(AlphaMsg::liveCount, 1);
        MsgPtr base = a; // Derived-to-base copy retains.
        IntrusivePtr<AlphaMsg> b = a;
        a.reset();
        EXPECT_EQ(AlphaMsg::liveCount, 1); // Two refs remain.
        EXPECT_EQ(b->value, 7);
        base = nullptr;
        EXPECT_EQ(AlphaMsg::liveCount, 1); // b still holds it.
    }
    EXPECT_EQ(AlphaMsg::liveCount, 0); // Last ref deleted it.
}

TEST(IntrusiveMsg, MoveDoesNotDoubleFree)
{
    auto a = makeMsg<AlphaMsg>(1);
    auto b = std::move(a);
    EXPECT_EQ(a.get(), nullptr);
    ASSERT_NE(b.get(), nullptr);
    EXPECT_EQ(AlphaMsg::liveCount, 1);
    b.reset();
    EXPECT_EQ(AlphaMsg::liveCount, 0);
}

// ---------------------------------------------------------------------
// Kind-tag dispatch (the dynamic_pointer_cast replacement)
// ---------------------------------------------------------------------

TEST(MsgCast, WrongKindReturnsNull)
{
    MsgPtr alpha = makeMsg<AlphaMsg>(3);
    MsgPtr beta = makeMsg<BetaMsg>();
    MsgPtr generic = makeMsg<Msg>();

    EXPECT_EQ(msgCast<BetaMsg>(alpha), nullptr);
    EXPECT_EQ(msgCast<AlphaMsg>(beta), nullptr);
    EXPECT_EQ(msgCast<AlphaMsg>(generic), nullptr);
    EXPECT_EQ(msgCast<AlphaMsg>(MsgPtr{}), nullptr);

    auto back = msgCast<AlphaMsg>(alpha);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->value, 3);
    EXPECT_EQ(back.get(), alpha.get());
}

TEST(MsgCast, TagsSurviveTransportFields)
{
    auto req = makeMsg<AlphaMsg>(9);
    req->sendTime = 42;
    req->trafficBytes = 64;
    MsgPtr asBase = req;
    EXPECT_EQ(asBase->kindTag(), MsgKind::TestA);
    EXPECT_STREQ(asBase->kind(), "Alpha");
    auto cast = msgCast<AlphaMsg>(asBase);
    ASSERT_NE(cast, nullptr);
    EXPECT_EQ(cast->sendTime, 42u);
}

// ---------------------------------------------------------------------
// Pool counters on the monitor's metrics surface
// ---------------------------------------------------------------------

TEST(PoolMetrics, ExposedAsAkitaSimPoolFamily)
{
    sim::SerialEngine eng;
    rtm::MonitorConfig cfg;
    cfg.announceUrl = false;
    cfg.autoSample = false;
    rtm::Monitor mon(cfg);
    mon.registerEngine(&eng);

    // Touch the pool so the counters are non-trivial.
    auto m = makeMsg<AlphaMsg>(1);
    m.reset();

    std::string text = mon.metrics().renderPrometheus();
    for (const char *name :
         {"akita_sim_pool_allocs_total", "akita_sim_pool_frees_total",
          "akita_sim_pool_remote_frees_total",
          "akita_sim_pool_oversize_allocs_total",
          "akita_sim_pool_slab_bytes", "akita_sim_pool_live_blocks"}) {
        EXPECT_NE(text.find(name), std::string::npos) << name;
    }
}
