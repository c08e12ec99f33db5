/**
 * @file
 * Reproduces Fig. 4: why buffer fullness identifies the bottleneck.
 *
 * Four components form a chain A -> B -> C -> D where each stage
 * forwards requests to the next. C is configured slow. The paper's
 * claim: B's and D's buffers stay comfortable while C's input buffer is
 * persistently full, so buffer fullness alone points at C.
 *
 * Output: per-stage buffer occupancy statistics over the run, plus the
 * analyzer's verdict.
 */

#include <functional>

#include "common.hh"
#include "rtm/bufferanalyzer.hh"
#include "sim/sim.hh"

using namespace akita;

namespace
{

/** A service stage: consumes from its input at a fixed rate, forwards
 * downstream. */
class Stage : public sim::TickingComponent
{
  public:
    Stage(sim::Engine *engine, const std::string &name,
          std::uint64_t service_cycles)
        : TickingComponent(engine, name, sim::Freq::ghz(1)),
          serviceCycles_(service_cycles)
    {
        in = addPort("In", 8);
        declareField("processed", [this]() {
            return introspect::Value::ofInt(
                static_cast<std::int64_t>(processed_));
        });
    }

    sim::Port *in = nullptr;
    sim::Port *next = nullptr; // Downstream input port (null for sink).

    bool
    tick() override
    {
        sim::VTime now = engine()->now();
        bool progress = false;

        if (busyUntil_ <= now && holding_ != nullptr) {
            if (next != nullptr) {
                holding_->dst = next;
                if (in->send(holding_) != sim::SendStatus::Ok) {
                    scheduleTickAt(freq().nextTick(now));
                    return progress;
                }
            }
            holding_ = nullptr;
            processed_++;
            progress = true;
        }

        if (holding_ == nullptr && busyUntil_ <= now) {
            sim::MsgPtr m = in->retrieveIncoming();
            if (m != nullptr) {
                holding_ = std::move(m);
                busyUntil_ = now + serviceCycles_ * freq().period();
                scheduleTickAt(busyUntil_);
                progress = true;
            }
        }
        return progress;
    }

  private:
    std::uint64_t serviceCycles_;
    sim::VTime busyUntil_ = 0;
    sim::MsgPtr holding_;
    std::uint64_t processed_ = 0;
};

/** Generates requests into stage A at a fixed rate. */
class Source : public sim::TickingComponent
{
  public:
    Source(sim::Engine *engine, sim::Port *target, int total)
        : TickingComponent(engine, "Source", sim::Freq::ghz(1)),
          target_(target), remaining_(total)
    {
        out = addPort("Out", 4);
    }

    sim::Port *out = nullptr;

    bool
    tick() override
    {
        if (remaining_ == 0)
            return false;
        auto m = sim::makeMsg<sim::Msg>();
        m->dst = target_;
        if (out->send(m) != sim::SendStatus::Ok)
            return false;
        remaining_--;
        return true;
    }

  private:
    sim::Port *target_;
    int remaining_;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::parseCli(argc, argv);
    using bench::section;

    auto engine = bench::makeEngine();
    sim::Engine &eng = *engine;
    sim::DirectConnection conn(&eng, "Chain", sim::kNanosecond);

    // Service rates: A, B, D fast (1 cycle); C slow (6 cycles).
    Stage a(&eng, "ComponentA", 1);
    Stage b(&eng, "ComponentB", 1);
    Stage c(&eng, "ComponentC", 6);
    Stage d(&eng, "ComponentD", 1);
    a.next = b.in;
    b.next = c.in;
    c.next = d.in;
    d.next = nullptr;

    Source src(&eng, a.in, 4000);
    for (auto *p : {src.out, a.in, b.in, c.in, d.in})
        conn.plugIn(p);
    src.tickLater();

    // The probe below reads every stage's buffer from an event handler,
    // which only owns its own domain's components. On DomainEngine keep
    // the whole chain on domain 0, where the probe's first event (and so
    // every re-armed one) runs: a consistent read, the same numbers as
    // serial.
    if (auto *de = dynamic_cast<sim::DomainEngine *>(&eng)) {
        for (sim::Component *comp :
             std::initializer_list<sim::Component *>{&src, &a, &b, &c,
                                                     &d})
            de->pinComponent(comp, 0);
    }

    rtm::ComponentRegistry registry;
    for (sim::Component *comp :
         std::initializer_list<sim::Component *>{&a, &b, &c, &d})
        registry.add(comp);
    rtm::BufferAnalyzer analyzer(&registry);

    // Sample buffer fullness every 64 cycles via an in-simulation
    // probe (deterministic).
    struct Acc
    {
        double sum = 0;
        std::size_t full = 0;
        std::size_t n = 0;
    };
    std::map<std::string, Acc> acc;
    std::function<void()> probe = [&]() {
        for (const auto &row :
             analyzer.snapshot(rtm::BufferSort::ByPercent)) {
            Acc &entry = acc[row.name];
            entry.sum += row.percent();
            entry.full += row.size >= row.capacity ? 1 : 0;
            entry.n++;
        }
        if (eng.queueLength() > 0)
            eng.scheduleAt(eng.now() + 64 * sim::kNanosecond, "probe",
                           probe);
    };
    eng.scheduleAt(64 * sim::kNanosecond, "probe", probe);
    eng.run();

    section("Fig. 4 — buffer fullness identifies the bottleneck");
    std::printf("Chain: Source -> A -> B -> C(slow) -> D\n\n");
    std::printf("%-18s %10s %12s\n", "Buffer", "avg fill%", "%time full");
    std::string verdict;
    double worst = -1;
    for (const auto &kv : acc) {
        const Acc &v = kv.second;
        double avg = v.sum / static_cast<double>(v.n);
        double fullPct =
            100.0 * static_cast<double>(v.full) / static_cast<double>(v.n);
        std::printf("%-18s %9.1f%% %11.1f%%\n", kv.first.c_str(), avg,
                    fullPct);
        if (avg > worst) {
            worst = avg;
            verdict = kv.first;
        }
    }
    std::printf("\nAnalyzer verdict: bottleneck at %s\n", verdict.c_str());
    std::printf("Expected (paper): ComponentC's input buffer "
                "(ComponentC.In.Buf)\n");

    bool match = verdict.find("ComponentC") != std::string::npos;
    std::printf("Shape reproduced: %s\n", match ? "YES" : "NO");
    return match ? 0 : 1;
}
