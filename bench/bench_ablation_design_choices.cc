/**
 * @file
 * Ablation of the three design choices §VII credits for AkitaRTM's low
 * overhead:
 *   1. on-demand only (vs continuously serializing in the background),
 *   2. fine serialization granularity (one component per request vs a
 *      whole-simulation snapshot per request),
 *   3. dedicated monitor thread (vs serializing synchronously on the
 *      simulation thread).
 *
 * Each ablation runs the same workload with the design choice inverted
 * and reports the slowdown relative to the proper design — making the
 * paper's argument quantitative.
 */

#include <atomic>
#include <functional>
#include <thread>

#include "common.hh"
#include "rtm/serialize.hh"

using namespace akita;

namespace
{

struct Rig
{
    gpu::Platform plat;
    rtm::Monitor mon;
    workloads::Benchmark bench;

    Rig()
        : plat(bench::applyEngine(
              gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny()))),
          mon(bench::quietMonitor()),
          bench(workloads::paperSuite(bench::benchScale(0.25))[0]) // FIR
    {
        mon.registerEngine(&plat.engine());
        for (auto *c : plat.components())
            mon.registerComponent(c);
        plat.driver().setProgressListener(&mon);
        plat.launchKernel(&bench.kernel);
    }

    double
    run()
    {
        bench::Stopwatch sw;
        if (plat.run() != gpu::Platform::RunStatus::Completed)
            std::exit(1);
        return sw.seconds();
    }

    /** Serializes every registered component once (the heavy op). */
    std::size_t
    serializeEverything()
    {
        std::size_t bytes = 0;
        for (auto *c : mon.registry().all()) {
            std::string body;
            json::Writer w(body);
            mon.withEngineLock([&]() { rtm::writeComponent(w, *c); });
            bytes += body.size();
        }
        return bytes;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    bench::parseCli(argc, argv);
    int runs = bench::envInt("AKITA_RUNS", 3);

    auto timeScenario = [&](const std::function<double()> &once) {
        double sum = 0;
        for (int i = 0; i < runs; i++)
            sum += once();
        return sum / runs;
    };

    // Baseline: monitor attached, idle (the proper design).
    double baseline = timeScenario([]() {
        Rig rig;
        return rig.run();
    });

    // Ablation 1: periodic background serialization of everything
    // every 10 ms instead of on-demand only.
    double periodic = timeScenario([]() {
        Rig rig;
        std::atomic<bool> stop{false};
        std::thread poller([&]() {
            while (!stop.load()) {
                rig.serializeEverything();
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
            }
        });
        double t = rig.run();
        stop.store(true);
        poller.join();
        return t;
    });

    // Ablation 2: coarse granularity — every request serializes the
    // whole simulation under one long engine-lock hold, at the passive
    // browser's 1 Hz rate.
    double coarse = timeScenario([]() {
        Rig rig;
        std::atomic<bool> stop{false};
        std::thread poller([&]() {
            while (!stop.load()) {
                // One "status refresh" = whole-simulation snapshot.
                rig.serializeEverything();
                for (int i = 0; i < 100 && !stop.load(); i++) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(10));
                }
            }
        });
        double t = rig.run();
        stop.store(true);
        poller.join();
        return t;
    });

    // Fine granularity at a far higher rate for comparison: 100
    // single-component requests per second.
    double fine = timeScenario([]() {
        Rig rig;
        std::atomic<bool> stop{false};
        auto components = rig.mon.registry().all();
        std::thread poller([&]() {
            std::size_t i = 0;
            while (!stop.load()) {
                auto *c = components[i++ % components.size()];
                std::string body;
                json::Writer w(body);
                rig.mon.withEngineLock(
                    [&]() { rtm::writeComponent(w, *c); });
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
            }
        });
        double t = rig.run();
        stop.store(true);
        poller.join();
        return t;
    });

    // Ablation 3: in-thread monitoring — the simulation thread itself
    // serializes everything every 50k events (no dedicated thread).
    double inThread = timeScenario([]() {
        Rig rig;
        std::function<void()> hook = [&]() {
            rig.serializeEverything();
            if (!rig.plat.driver().allKernelsDone()) {
                rig.plat.engine().scheduleAt(
                    rig.plat.engine().now() + 20 * sim::kMicrosecond,
                    "inthread-serialize", hook);
            }
        };
        rig.plat.engine().scheduleAt(20 * sim::kMicrosecond,
                                     "inthread-serialize", hook);
        return rig.run();
    });

    bench::section("Ablation of §VII design choices (FIR workload)");
    std::printf("%-52s %9s %9s\n", "configuration", "time", "vs base");
    auto row = [&](const char *label, double t) {
        std::printf("%-52s %8.3fs %+8.1f%%\n", label, t,
                    100.0 * (t / baseline - 1.0));
    };
    row("proper design (on-demand, fine-grained, own thread)", baseline);
    row("ablate 1: periodic full serialization @100 Hz", periodic);
    row("ablate 2: coarse snapshots (whole sim per request)", coarse);
    row("          fine snapshots (1 component @100 Hz)", fine);
    row("ablate 3: serialization on the simulation thread", inThread);

    std::printf("\nExpected ordering: proper <= fine << periodic/coarse/"
                "in-thread\n");
    bool ok = inThread > baseline && periodic > baseline;
    std::printf("Design choices measurably matter: %s\n",
                ok ? "YES" : "NO");
    return ok ? 0 : 1;
}
