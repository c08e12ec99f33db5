/**
 * @file
 * Tests for the serving fast path: the generation-stamped response
 * cache (build coalescing, ETags, LRU) and the streaming serializers'
 * byte equivalence with the Json-tree builders they replace.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "json/json.hh"
#include "json/writer.hh"
#include "rtm/progressbar.hh"
#include "rtm/registry.hh"
#include "rtm/respcache.hh"
#include "rtm/serialize.hh"
#include "rtm/valuemonitor.hh"

using namespace akita;
using rtm::ResponseCache;

TEST(ResponseCache, BuildsOncePerGeneration)
{
    ResponseCache cache;
    auto build = []() { return std::string("body"); };
    auto a = cache.get("/x", 1, "text/plain", build);
    auto b = cache.get("/x", 1, "text/plain", build);
    EXPECT_EQ(cache.buildCount(), 1u);
    EXPECT_EQ(a->body, "body");
    EXPECT_EQ(a.get(), b.get()) << "same entry is shared";
}

TEST(ResponseCache, StaleGenerationRebuilds)
{
    ResponseCache cache;
    int calls = 0;
    auto build = [&]() { return "v" + std::to_string(++calls); };
    EXPECT_EQ(cache.get("/x", 1, "t", build)->body, "v1");
    EXPECT_EQ(cache.get("/x", 2, "t", build)->body, "v2");
    // Lower/equal generations are served from cache.
    EXPECT_EQ(cache.get("/x", 1, "t", build)->body, "v2");
    EXPECT_EQ(cache.get("/x", 2, "t", build)->body, "v2");
    EXPECT_EQ(cache.buildCount(), 2u);
}

TEST(ResponseCache, DistinctKeysBuildIndependently)
{
    ResponseCache cache;
    cache.get("/x?a=1", 1, "t", []() { return std::string("a"); });
    cache.get("/x?a=2", 1, "t", []() { return std::string("b"); });
    EXPECT_EQ(cache.buildCount(), 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ResponseCache, ConcurrentIdenticalRequestsCoalesce)
{
    // The ISSUE acceptance scenario: K simultaneous identical GETs
    // must trigger exactly one (slow) build, shared by all waiters.
    constexpr int kClients = 8;
    ResponseCache cache;
    std::atomic<int> entered{0};
    auto slowBuild = [&]() {
        entered++;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return std::string("shared");
    };

    std::vector<std::thread> threads;
    std::vector<std::shared_ptr<const ResponseCache::Entry>> results(
        kClients);
    for (int i = 0; i < kClients; i++) {
        threads.emplace_back([&, i]() {
            results[i] = cache.get("/hot", 7, "t", slowBuild);
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(cache.buildCount(), 1u);
    EXPECT_EQ(entered.load(), 1);
    for (const auto &r : results) {
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->body, "shared");
        EXPECT_EQ(r.get(), results[0].get());
    }
}

TEST(ResponseCache, WaitersAcceptInFlightBuildAtNewerRequestedGen)
{
    // Generation sources like the engine event count advance
    // continuously; a waiter asking for gen G+1 while a build for G is
    // in flight must share that result instead of building again.
    ResponseCache cache;
    std::atomic<bool> inBuild{false};
    auto slowBuild = [&]() {
        inBuild = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return std::string("gen10");
    };

    std::thread first(
        [&]() { cache.get("/hot", 10, "t", slowBuild); });
    while (!inBuild.load())
        std::this_thread::yield();
    auto late = cache.get("/hot", 11, "t", slowBuild);
    first.join();

    EXPECT_EQ(late->body, "gen10");
    EXPECT_EQ(cache.buildCount(), 1u);
}

TEST(ResponseCache, EtagTracksBodyNotGeneration)
{
    ResponseCache cache;
    auto same = []() { return std::string("constant"); };
    std::string etag1 = cache.get("/x", 1, "t", same)->etag;
    std::string etag2 = cache.get("/x", 2, "t", same)->etag;
    // Generation advanced but the bytes did not: the ETag must be
    // stable so pollers keep getting 304s.
    EXPECT_EQ(etag1, etag2);
    EXPECT_EQ(etag1.front(), '"');
    EXPECT_EQ(etag1.back(), '"');

    std::string etag3 =
        cache.get("/x", 3, "t", []() { return std::string("changed"); })
            ->etag;
    EXPECT_NE(etag3, etag1);
}

TEST(ResponseCache, LruEvictsOldestKey)
{
    ResponseCache cache(2);
    auto build = []() { return std::string("b"); };
    cache.get("/a", 1, "t", build);
    cache.get("/b", 1, "t", build);
    cache.get("/a", 1, "t", build); // Touch /a so /b is the LRU.
    cache.get("/c", 1, "t", build);
    EXPECT_EQ(cache.size(), 2u);
    // /a survived; /b was evicted and needs a rebuild.
    cache.get("/a", 1, "t", build);
    EXPECT_EQ(cache.buildCount(), 3u);
    cache.get("/b", 1, "t", build);
    EXPECT_EQ(cache.buildCount(), 4u);
}

TEST(ResponseCache, BuilderExceptionPropagatesAndDoesNotPoison)
{
    ResponseCache cache;
    EXPECT_THROW(cache.get("/x", 1, "t",
                           []() -> std::string {
                               throw std::runtime_error("boom");
                           }),
                 std::runtime_error);
    // The key is not left in a stuck "building" state.
    EXPECT_EQ(cache.get("/x", 1, "t",
                        []() { return std::string("ok"); })
                  ->body,
              "ok");
}

TEST(ResponseCache, ClearDropsEntries)
{
    ResponseCache cache;
    cache.get("/x", 1, "t", []() { return std::string("b"); });
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    cache.get("/x", 1, "t", []() { return std::string("b"); });
    EXPECT_EQ(cache.buildCount(), 2u);
}

// ---------------------------------------------------------------------
// Streaming serializers: golden wire bodies
// ---------------------------------------------------------------------

TEST(StreamingSerialize, BuffersGoldenBody)
{
    std::vector<rtm::BufferLevel> levels;
    for (int i = 0; i < 4; i++) {
        rtm::BufferLevel l;
        l.name = "GPU[" + std::to_string(i) + "].L1V.Buf";
        l.size = static_cast<std::size_t>(i * 3);
        l.capacity = 16;
        levels.push_back(l);
    }
    std::string streamed;
    json::Writer w(streamed);
    rtm::writeBuffers(w, levels);
    EXPECT_EQ(streamed,
              R"([{"buffer":"GPU[0].L1V.Buf","size":0,"cap":16,)"
              R"("percent":0,"head_kind":""},)"
              R"({"buffer":"GPU[1].L1V.Buf","size":3,"cap":16,)"
              R"("percent":18.75,"head_kind":""},)"
              R"({"buffer":"GPU[2].L1V.Buf","size":6,"cap":16,)"
              R"("percent":37.5,"head_kind":""},)"
              R"({"buffer":"GPU[3].L1V.Buf","size":9,"cap":16,)"
              R"("percent":56.25,"head_kind":""}])");
}

TEST(StreamingSerialize, ProgressGoldenBody)
{
    std::vector<rtm::ProgressBar> bars(2);
    bars[0].id = 1;
    bars[0].label = "kernel \"fir\"";
    bars[0].total = 100;
    bars[0].completed = 40;
    bars[0].inProgress = 8;
    bars[1].id = 2;
    bars[1].label = "copy";
    bars[1].total = 7;
    std::string streamed;
    json::Writer w(streamed);
    rtm::writeProgress(w, bars);
    EXPECT_EQ(streamed,
              R"([{"id":1,"label":"kernel \"fir\"","total":100,)"
              R"("completed":40,"in_progress":8,"not_started":52},)"
              R"({"id":2,"label":"copy","total":7,"completed":0,)"
              R"("in_progress":0,"not_started":7}])");
}

TEST(StreamingSerialize, SeriesGoldenBody)
{
    rtm::TrackedSeries s;
    s.id = 3;
    s.componentName = "GPU[0].SA[1]";
    s.fieldName = "occupancy";
    for (int i = 0; i < 5; i++)
        s.samples.push_back({static_cast<sim::VTime>(i * 1000),
                             i * 0.125});
    std::string streamed;
    json::Writer w(streamed);
    rtm::writeSeries(w, s);
    EXPECT_EQ(streamed,
              R"({"id":3,"component":"GPU[0].SA[1]","field":"occupancy",)"
              R"("points":[{"t_ps":0,"v":0},{"t_ps":1000,"v":0.125},)"
              R"({"t_ps":2000,"v":0.25},{"t_ps":3000,"v":0.375},)"
              R"({"t_ps":4000,"v":0.5}]})");
}

TEST(StreamingSerialize, TreeGoldenBody)
{
    rtm::TreeNode root;
    root.label = "root";
    auto gpu = std::make_unique<rtm::TreeNode>();
    gpu->label = "GPU[0]";
    auto sa = std::make_unique<rtm::TreeNode>();
    sa->label = "SA[0]";
    sa->componentName = "GPU[0].SA[0]";
    gpu->children.emplace("SA[0]", std::move(sa));
    root.children.emplace("GPU[0]", std::move(gpu));

    std::string streamed;
    json::Writer w(streamed);
    rtm::writeTree(w, root);
    EXPECT_EQ(streamed,
              R"({"label":"root","children":[{"label":"GPU[0]",)"
              R"("children":[{"label":"SA[0]",)"
              R"("component":"GPU[0].SA[0]"}]}]})");
}

// ---------------------------------------------------------------------
// TTL floors, serving counters, and per-encoding bodies
// ---------------------------------------------------------------------

#include "rtm/monitor.hh"
#include "web/client.hh"
#include "web/encoding.hh"

TEST(ResponseCache, TtlFloorCoalescesAcrossGenerationBump)
{
    ResponseCache cache;
    int calls = 0;
    auto build = [&]() { return "v" + std::to_string(++calls); };
    // First polling wave builds at generation 1.
    EXPECT_EQ(cache.get("/x", 1, "t", build, /*ttl_ms=*/500)->body, "v1");
    // The generation bumps, but a second wave arrives within the TTL
    // floor: it must be served the (slightly stale) cached bytes.
    EXPECT_EQ(cache.get("/x", 2, "t", build, /*ttl_ms=*/500)->body, "v1");
    EXPECT_EQ(cache.buildCount(), 1u);
    EXPECT_EQ(cache.hitCount(), 1u);
    EXPECT_EQ(cache.missCount(), 1u);
}

TEST(ResponseCache, TtlZeroKeepsStrictGenerationSemantics)
{
    ResponseCache cache;
    int calls = 0;
    auto build = [&]() { return "v" + std::to_string(++calls); };
    EXPECT_EQ(cache.get("/x", 1, "t", build, 0)->body, "v1");
    EXPECT_EQ(cache.get("/x", 2, "t", build, 0)->body, "v2");
    EXPECT_EQ(cache.buildCount(), 2u);
}

TEST(ResponseCache, TtlExpiryRebuildsOnStaleGeneration)
{
    ResponseCache cache;
    int calls = 0;
    auto build = [&]() { return "v" + std::to_string(++calls); };
    cache.get("/x", 1, "t", build, 20);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    // TTL elapsed and the generation moved on: rebuild.
    EXPECT_EQ(cache.get("/x", 2, "t", build, 20)->body, "v2");
    // But a fresh-enough *generation* never needs the TTL.
    EXPECT_EQ(cache.get("/x", 2, "t", build, 20)->body, "v2");
    EXPECT_EQ(cache.buildCount(), 2u);
}

TEST(ResponseCache, CountersClassifyEveryOutcome)
{
    ResponseCache cache;
    auto build = []() { return std::string("body"); };
    cache.get("/x", 1, "t", build);  // miss
    cache.get("/x", 1, "t", build);  // hit
    cache.get("/x", 1, "t", build);  // hit
    EXPECT_EQ(cache.missCount(), 1u);
    EXPECT_EQ(cache.hitCount(), 2u);
    EXPECT_EQ(cache.coalesceCount(), 0u);
    EXPECT_EQ(cache.notModifiedCount(), 0u);
    cache.noteNotModified();
    EXPECT_EQ(cache.notModifiedCount(), 1u);

    // Waiters on an in-flight build count as coalesced, not hits.
    std::atomic<bool> inBuild{false};
    auto slowBuild = [&]() {
        inBuild = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(80));
        return std::string("slow");
    };
    std::thread first([&]() { cache.get("/slow", 1, "t", slowBuild); });
    while (!inBuild.load())
        std::this_thread::yield();
    cache.get("/slow", 1, "t", slowBuild);
    first.join();
    EXPECT_EQ(cache.coalesceCount(), 1u);
}

TEST(ResponseCache, EncodedBodyCompressesOncePerEntry)
{
    if (!web::encodingSupported())
        GTEST_SKIP() << "built without zlib";
    ResponseCache cache;
    std::string big;
    for (int i = 0; i < 300; i++)
        big += "repetitive cache payload segment " + std::to_string(i);
    auto entry =
        cache.get("/x", 1, "t", [&]() { return big; });

    const std::string *gz =
        cache.encodedBody(entry, web::ContentEncoding::Gzip);
    ASSERT_NE(gz, nullptr);
    EXPECT_LT(gz->size(), big.size());
    const std::string *again =
        cache.encodedBody(entry, web::ContentEncoding::Gzip);
    EXPECT_EQ(gz, again) << "same cached bytes, not a re-compression";
    EXPECT_EQ(cache.encodeCount(), 1u);

    std::string unpacked;
    ASSERT_TRUE(web::decompressBody(*gz, unpacked, 1u << 24));
    EXPECT_EQ(unpacked, entry->body);

    // A second coding is an independent variant of the same entry.
    const std::string *fl =
        cache.encodedBody(entry, web::ContentEncoding::Deflate);
    ASSERT_NE(fl, nullptr);
    EXPECT_EQ(cache.encodeCount(), 2u);

    // Identity asks for nothing.
    EXPECT_EQ(cache.encodedBody(entry, web::ContentEncoding::Identity),
              nullptr);

    // A new generation's entry starts with no encoded variants.
    auto entry2 = cache.get("/x", 2, "t", [&]() { return big + "!"; });
    cache.encodedBody(entry2, web::ContentEncoding::Gzip);
    EXPECT_EQ(cache.encodeCount(), 3u);
}

TEST(MonitorServing, CacheCountersExportedViaMetrics)
{
    rtm::MonitorConfig cfg;
    cfg.port = 0;
    cfg.announceUrl = false;
    cfg.metricsIntervalMs = 3600 * 1000; // Manual passes only.
    rtm::Monitor mon(cfg);
    ASSERT_TRUE(mon.startServer());

    web::PersistentClient client("127.0.0.1", mon.serverPort());
    auto a = client.get("/api/components");
    auto b = client.get("/api/components");
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_GE(mon.responseCache().hitCount() +
                  mon.responseCache().coalesceCount(),
              1u);

    auto metrics = client.get("/metrics");
    ASSERT_TRUE(metrics.has_value());
    EXPECT_NE(metrics->body.find(
                  "akita_rtm_response_cache_events_total{kind=\"hit\"}"),
              std::string::npos)
        << metrics->body.substr(0, 400);
    EXPECT_NE(metrics->body.find(
                  "akita_rtm_response_cache_events_total{kind=\"miss\"}"),
              std::string::npos);
    mon.stopServer();
}
