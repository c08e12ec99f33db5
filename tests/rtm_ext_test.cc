/**
 * @file
 * Tests for the RTM extension views: port throughput, the topology
 * map, and CSV export — plus their HTTP endpoints.
 */

#include <gtest/gtest.h>

#include <thread>

#include "gpu/platform.hh"
#include "json/json.hh"
#include "rtm/monitor.hh"
#include "web/client.hh"
#include "workloads/workloads.hh"

using namespace akita;
using akita::json::Json;

namespace
{

struct Rig
{
    gpu::Platform plat;
    rtm::Monitor mon;

    Rig() : Rig(config()) {}

    explicit Rig(const rtm::MonitorConfig &cfg)
        : plat(gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny())),
          mon(cfg)
    {
        mon.registerEngine(&plat.engine());
        for (auto *c : plat.components())
            mon.registerComponent(c);
        for (auto *conn : plat.connections())
            mon.registerConnection(conn);
        plat.driver().setProgressListener(&mon);
    }

    static rtm::MonitorConfig
    config()
    {
        rtm::MonitorConfig cfg;
        cfg.announceUrl = false;
        return cfg;
    }

    void
    runKernel()
    {
        workloads::MemCopyParams p;
        p.bytes = 1 << 20;
        kernel = workloads::makeMemCopy(p);
        plat.launchKernel(&kernel);
        ASSERT_EQ(plat.run(), gpu::Platform::RunStatus::Completed);
    }

    gpu::KernelDescriptor kernel;
};

} // namespace

TEST(Throughput, TotalsAndRates)
{
    Rig rig;

    // Before any traffic: totals zero, rates zero.
    auto before = rig.mon.portThroughput("GPU[0].SA[0].CU[0]");
    ASSERT_EQ(before.size(), 2u); // CtrlPort + MemPort.
    for (const auto &t : before) {
        EXPECT_EQ(t.totalSent, 0u);
        EXPECT_EQ(t.sendRateSimPerSec, 0.0);
    }

    rig.runKernel();

    auto after = rig.mon.portThroughput("GPU[0].SA[0].CU[0]");
    bool memPortActive = false;
    for (const auto &t : after) {
        if (t.port == "GPU[0].SA[0].CU[0].MemPort") {
            memPortActive = t.totalSent > 0 && t.totalSentBytes > 0 &&
                            t.totalReceived > 0;
            // Virtual time advanced since the first query: a rate must
            // be reported.
            EXPECT_GT(t.sendRateSimPerSec, 0.0);
        }
    }
    EXPECT_TRUE(memPortActive);
}

TEST(Throughput, TwoClientsIndependentCursors)
{
    Rig rig;
    const std::string comp = "GPU[0].SA[0].CU[0]";

    // Both clients establish baselines before any traffic.
    rig.mon.portThroughput(comp, "a");
    rig.mon.portThroughput(comp, "b");

    rig.runKernel();

    // A drains its delta twice; B's cursor must stay untouched.
    auto a1 = rig.mon.portThroughput(comp, "a");
    auto a2 = rig.mon.portThroughput(comp, "a");
    auto b1 = rig.mon.portThroughput(comp, "b");

    double aRate = 0, bRate = 0;
    for (const auto &t : a1)
        aRate += t.sendRateSimPerSec;
    for (const auto &t : b1)
        bRate += t.sendRateSimPerSec;
    EXPECT_GT(aRate, 0.0);
    // The shared-cursor bug zeroed B's first post-run rate because A's
    // queries consumed the delta; per-client cursors keep them equal.
    EXPECT_DOUBLE_EQ(bRate, aRate);
    for (const auto &t : a2)
        EXPECT_EQ(t.sendRateSimPerSec, 0.0)
            << "no virtual time elapsed between A's queries";
    // Totals are absolute and identical for every observer.
    for (std::size_t i = 0; i < a1.size(); i++)
        EXPECT_EQ(a1[i].totalSent, b1[i].totalSent);
}

TEST(Throughput, ClientCursorLruEviction)
{
    Rig rig;
    rig.runKernel();
    const std::string comp = "GPU[0].SA[0].CU[0]";

    rtm::ThroughputTracker tracker(&rig.mon.registry());
    // More clients than the cursor table retains: the oldest fall off
    // but the table never grows unbounded.
    for (int i = 0; i < 300; i++)
        tracker.sample(comp, rig.plat.engine().now(),
                       "client-" + std::to_string(i));
    EXPECT_LE(tracker.numClients(), 256u);
}

TEST(ValueMonitor, DashboardViewIsNewestWindowOfStore)
{
    rtm::MonitorConfig cfg;
    cfg.announceUrl = false;
    cfg.autoSample = false;
    Rig rig(cfg);

    auto id = rig.mon.trackValue("GPU[0].RDMA", "transactions");
    ASSERT_GT(id, 0u);
    const std::size_t passes = rtm::ValueMonitor::kMaxPoints + 10;
    for (std::size_t i = 0; i < passes; i++)
        rig.mon.sampleNow();

    // The dashboard view keeps the paper's 300 points...
    auto s = rig.mon.valueSeries(id);
    EXPECT_EQ(s.samples.size(), rtm::ValueMonitor::kMaxPoints);

    // ...as a window over the metrics store, which retains the raw
    // history beyond it (no 300-point cliff).
    auto series = rig.mon.metrics().query(
        "akita_tracked_value", {{"component", "GPU[0].RDMA"}}, 0,
        std::numeric_limits<std::int64_t>::max(), 1);
    ASSERT_EQ(series.size(), 1u);
    EXPECT_GE(series[0].points.size(), passes);
}

TEST(ValueMonitor, SameFieldTrackedTwiceExposesDistinctSeries)
{
    // Two series with identical label sets are one series twice, which
    // Prometheus rejects; each tracked series carries its id.
    rtm::MonitorConfig cfg;
    cfg.announceUrl = false;
    cfg.autoSample = false;
    Rig rig(cfg);

    auto a = rig.mon.trackValue("GPU[0].RDMA", "transactions");
    auto b = rig.mon.trackValue("GPU[0].RDMA", "transactions");
    ASSERT_GT(a, 0u);
    ASSERT_GT(b, 0u);
    ASSERT_NE(a, b);
    rig.mon.sampleNow();

    std::string text = rig.mon.metrics().renderPrometheus();
    std::vector<std::string> series;
    std::size_t pos = 0;
    while ((pos = text.find("\nakita_tracked_value{", pos)) !=
           std::string::npos) {
        pos++;
        std::size_t close = text.find('}', pos);
        ASSERT_NE(close, std::string::npos);
        series.push_back(text.substr(pos, close + 1 - pos));
    }
    ASSERT_EQ(series.size(), 2u) << text;
    EXPECT_NE(series[0], series[1]);
    EXPECT_NE(series[0].find("id=\"" + std::to_string(a) + "\""),
              std::string::npos)
        << series[0];
    EXPECT_NE(series[1].find("id=\"" + std::to_string(b) + "\""),
              std::string::npos)
        << series[1];
}

TEST(Throughput, UnknownComponentEmpty)
{
    Rig rig;
    EXPECT_TRUE(rig.mon.portThroughput("Ghost").empty());
}

TEST(Topology, ListsConnectionsAndPorts)
{
    Rig rig;
    Json topo = rig.mon.topology();
    ASSERT_GT(topo.size(), 4u); // Driver conn + network + per-GPU fabrics.

    bool sawNetwork = false, sawSaConn = false;
    for (const auto &entry : topo.items()) {
        std::string name = entry.getStr("connection");
        const Json *ports = entry.get("ports");
        ASSERT_NE(ports, nullptr);
        EXPECT_GT(ports->size(), 0u) << name;
        if (name == "Network") {
            sawNetwork = true;
            // All four RDMA outside ports attach to the network.
            EXPECT_EQ(ports->size(), 4u);
        }
        if (name == "GPU[0].SA[0].Conn")
            sawSaConn = true;
    }
    EXPECT_TRUE(sawNetwork);
    EXPECT_TRUE(sawSaConn);
}

TEST(CsvExport, SeriesRoundTrip)
{
    Rig rig;
    auto id = rig.mon.trackValue("GPU[0].RDMA", "transactions");
    ASSERT_GT(id, 0u);
    rig.mon.sampleNow();
    rig.runKernel();
    rig.mon.sampleNow();

    std::string csv = rig.mon.exportSeriesCsv(id);
    ASSERT_FALSE(csv.empty());
    EXPECT_EQ(csv.rfind("t_ps,GPU[0].RDMA.transactions\n", 0), 0u);
    // Header + at least two sample rows.
    EXPECT_GE(std::count(csv.begin(), csv.end(), '\n'), 3);

    EXPECT_TRUE(rig.mon.exportSeriesCsv(999).empty());
}

TEST(ExtensionEndpoints, OverHttp)
{
    Rig rig;
    ASSERT_TRUE(rig.mon.startServer());
    web::HttpClient client("127.0.0.1", rig.mon.serverPort());

    rig.runKernel();

    auto topo = client.get("/api/topology");
    ASSERT_TRUE(topo.has_value());
    EXPECT_EQ(topo->status, 200);
    EXPECT_GT(Json::parse(topo->body).size(), 0u);

    auto thr = client.get(
        "/api/throughput?component=GPU%5B0%5D.SA%5B0%5D.CU%5B0%5D");
    ASSERT_TRUE(thr.has_value());
    ASSERT_EQ(thr->status, 200);
    Json ports = Json::parse(thr->body);
    ASSERT_GT(ports.size(), 0u);
    EXPECT_GT(ports.at(1).getInt("total_sent", 0), 0);

    auto missing = client.get("/api/throughput?component=Ghost");
    EXPECT_EQ(missing->status, 404);

    auto track = client.post(
        "/api/monitor/track?component=Driver&field=kernels_completed",
        "");
    ASSERT_EQ(track->status, 200);
    std::int64_t id = Json::parse(track->body).getInt("id", 0);
    rig.mon.sampleNow();

    auto csv = client.get("/api/monitor/export?id=" + std::to_string(id));
    ASSERT_TRUE(csv.has_value());
    EXPECT_EQ(csv->status, 200);
    EXPECT_EQ(csv->body.rfind("t_ps,", 0), 0u);

    auto badCsv = client.get("/api/monitor/export?id=999");
    EXPECT_EQ(badCsv->status, 404);

    rig.mon.stopServer();
}
