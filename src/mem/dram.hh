/**
 * @file
 * DRAM controller model.
 */

#ifndef AKITA_MEM_DRAM_HH
#define AKITA_MEM_DRAM_HH

#include <deque>

#include "mem/msg.hh"
#include "metrics/instrument.hh"
#include "sim/component.hh"

namespace akita
{
namespace mem
{

/**
 * A bandwidth- and latency-limited DRAM channel.
 *
 * Requests are admitted at a fixed rate (requests/cycle, the bandwidth
 * proxy), serviced after a fixed access latency, and responded to in
 * admission order. A bounded service queue backpressures the top port,
 * which is how DRAM congestion becomes visible to the bottleneck
 * analyzer.
 */
class DramController : public sim::TickingComponent
{
  public:
    struct Config
    {
        std::uint64_t accessLatency = 100; // Cycles.
        std::size_t reqPerCycle = 2;
        std::size_t queueCapacity = 64;
        std::size_t topBufCapacity = 16;
    };

    DramController(sim::Engine *engine, const std::string &name,
                   sim::Freq freq, const Config &cfg);

    sim::Port *topPort() const { return topPort_; }

    bool tick() override;

    std::size_t transactionCount() const { return queue_.size(); }

    std::uint64_t
    totalReads() const
    {
        return reads_.value();
    }

    std::uint64_t
    totalWrites() const
    {
        return writes_.value();
    }

  private:
    struct InFlight
    {
        MemReqPtr req;
        sim::Port *returnTo;
        sim::VTime readyAt;
    };

    Config cfg_;
    sim::Port *topPort_;
    std::deque<InFlight> queue_;
    metrics::Counter reads_;
    metrics::Counter writes_;
};

} // namespace mem
} // namespace akita

#endif // AKITA_MEM_DRAM_HH
