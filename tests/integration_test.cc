/**
 * @file
 * Cross-module integration tests: full workloads on the platform with
 * conservation and consistency properties, monitored and unmonitored.
 */

#include <gtest/gtest.h>

#include <thread>

#include "gpu/platform.hh"
#include "rtm/monitor.hh"
#include "workloads/workloads.hh"

using namespace akita;

namespace
{

struct RunOutcome
{
    gpu::Platform::RunStatus status;
    sim::VTime finalTime;
    std::uint64_t events;
    std::uint64_t memReqs;
};

RunOutcome
runBench(const workloads::Benchmark &bench, std::size_t num_gpus,
         bool monitored)
{
    gpu::PlatformConfig cfg;
    cfg.numGpus = num_gpus;
    cfg.gpu = gpu::GpuConfig::tiny();
    gpu::Platform plat(cfg);

    std::unique_ptr<rtm::Monitor> mon;
    if (monitored) {
        rtm::MonitorConfig mc;
        mc.announceUrl = false;
        mon = std::make_unique<rtm::Monitor>(mc);
        mon->registerEngine(&plat.engine());
        for (auto *c : plat.components())
            mon->registerComponent(c);
        plat.driver().setProgressListener(mon.get());
    }

    // Copy the kernel so each run owns one (descriptors are value
    // types).
    gpu::KernelDescriptor kernel = bench.kernel;
    plat.launchKernel(&kernel);
    RunOutcome out;
    out.status = plat.run();
    out.finalTime = plat.engine().now();
    out.events = plat.engine().eventCount();

    out.memReqs = 0;
    for (auto &chip : plat.gpus()) {
        for (auto *cu : chip.cus) {
            out.memReqs += static_cast<std::uint64_t>(
                cu->fields().find("mem_reqs_issued")->getter().intVal());
        }
    }
    return out;
}

} // namespace

class BenchIntegration : public ::testing::TestWithParam<std::size_t>
{
  protected:
    workloads::Benchmark
    bench() const
    {
        return workloads::paperSuite(0.02)[GetParam()];
    }
};

TEST_P(BenchIntegration, CompletesAndConserves)
{
    RunOutcome out = runBench(bench(), 4, false);
    EXPECT_EQ(out.status, gpu::Platform::RunStatus::Completed);
    EXPECT_GT(out.memReqs, 0u);
    EXPECT_GT(out.events, out.memReqs)
        << "each memory request traverses multiple events";
}

TEST_P(BenchIntegration, MonitorDoesNotPerturbTiming)
{
    RunOutcome plain = runBench(bench(), 4, false);
    RunOutcome monitored = runBench(bench(), 4, true);
    EXPECT_EQ(monitored.status, gpu::Platform::RunStatus::Completed);
    EXPECT_EQ(plain.finalTime, monitored.finalTime) << bench().name;
    EXPECT_EQ(plain.memReqs, monitored.memReqs);
}

TEST_P(BenchIntegration, MoreChipletsNoSlowdownOnParallelWork)
{
    RunOutcome one = runBench(bench(), 1, false);
    RunOutcome four = runBench(bench(), 4, false);
    EXPECT_EQ(one.status, gpu::Platform::RunStatus::Completed);
    EXPECT_EQ(four.status, gpu::Platform::RunStatus::Completed);
    // Four chiplets quadruple compute and memory resources, but page
    // interleaving makes ~3/4 of accesses remote. Compute-bound grids
    // must not slow down much; communication-bound ones (BitonicSort's
    // power-of-two strides cross pages constantly) may pay up to the
    // network's latency/bandwidth penalty — the very effect case
    // study 1 diagnoses via the RDMA transaction count.
    bool networkBound = bench().name == "BitonicSort";
    EXPECT_LE(four.finalTime, one.finalTime * (networkBound ? 6 : 2))
        << bench().name;
}

INSTANTIATE_TEST_SUITE_P(AllSix, BenchIntegration,
                         ::testing::Range<std::size_t>(0, 6));

TEST(Integration, PauseResumePreservesResult)
{
    // Pausing and resuming repeatedly must not change the simulation's
    // final virtual time (events execute identically).
    auto bench = workloads::paperSuite(0.02)[0]; // FIR.

    sim::VTime reference;
    {
        gpu::Platform plat(
            gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny()));
        gpu::KernelDescriptor k = bench.kernel;
        plat.launchKernel(&k);
        plat.run();
        reference = plat.engine().now();
    }

    gpu::Platform plat(
        gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny()));
    plat.engine().setConcurrentAccess(true);
    gpu::KernelDescriptor k = bench.kernel;
    plat.launchKernel(&k);

    std::thread runner([&]() { plat.run(); });
    for (int i = 0; i < 20; i++) {
        plat.engine().pause();
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        plat.engine().resume();
        std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    runner.join();
    EXPECT_EQ(plat.engine().now(), reference);
}

TEST(Integration, StopMidRunLeavesConsistentState)
{
    gpu::Platform plat(
        gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny()));
    plat.engine().setConcurrentAccess(true);
    auto bench = workloads::paperSuite(0.05)[1]; // im2col.
    gpu::KernelDescriptor k = bench.kernel;
    plat.launchKernel(&k);

    std::thread runner([&]() { plat.run(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    plat.engine().stop();
    runner.join();

    // The engine halted between events: every component snapshot is
    // readable and buffer sizes are within capacity.
    for (auto *c : plat.components()) {
        for (auto *b : c->buffers()) {
            EXPECT_LE(b->size(), b->capacity()) << b->name();
        }
        for (const auto &f : c->fields().all())
            f.getter(); // Must not crash.
    }
}

TEST(Integration, CustomProgressBarForMemCopy)
{
    // §IV-C: developers can add custom bars, e.g. bytes copied.
    // The platform outlives the monitor: ~Monitor detaches from the
    // engine.
    gpu::Platform plat(
        gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny()));
    rtm::MonitorConfig mc;
    mc.announceUrl = false;
    rtm::Monitor mon(mc);
    mon.registerEngine(&plat.engine());

    workloads::MemCopyParams p;
    p.bytes = 1 << 20;
    auto k = workloads::makeMemCopy(p);

    auto barId = mon.createProgressBar("memcopy bytes", p.bytes);
    // Update the custom bar from kernel progress (bytes = WGs * per-WG).
    class Bridge : public gpu::KernelProgressListener
    {
      public:
        rtm::Monitor *mon;
        std::uint64_t barId;
        std::uint64_t bytesPerWG;

        void kernelStarted(std::uint64_t, const std::string &,
                           std::uint64_t) override
        {
        }

        void
        kernelProgress(std::uint64_t, std::uint64_t completed,
                       std::uint64_t ongoing) override
        {
            mon->updateProgressBar(barId, completed * bytesPerWG,
                                   ongoing * bytesPerWG);
        }

        void kernelFinished(std::uint64_t) override {}
    } bridge;
    bridge.mon = &mon;
    bridge.barId = barId;
    bridge.bytesPerWG = p.bytesPerWG;
    plat.driver().setProgressListener(&bridge);

    plat.launchKernel(&k);
    EXPECT_EQ(plat.run(), gpu::Platform::RunStatus::Completed);

    auto bars = mon.progressBars();
    ASSERT_EQ(bars.size(), 1u);
    EXPECT_EQ(bars[0].completed, p.bytes);
    EXPECT_TRUE(mon.destroyProgressBar(barId));
}
