/**
 * @file
 * Bandwidth- and latency-modeled inter-chiplet network.
 */

#ifndef AKITA_NET_SWITCHED_HH
#define AKITA_NET_SWITCHED_HH

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "introspect/field.hh"
#include "sim/connection.hh"
#include "sim/engine.hh"

namespace akita
{
namespace net
{

/**
 * A switched network connecting chiplet RDMA ports.
 *
 * Models each destination's ingress link as a serialized resource with
 * finite bandwidth: message delivery occupies the link for
 * size/bandwidth time, plus a fixed propagation latency. Destination
 * buffer space is reserved at send time (like DirectConnection), so a
 * congested receiver backpressures senders — the "slow network" whose
 * effect case study 1 observes as ~1000 transactions piling up in the
 * RDMA engine.
 *
 * Destination slots are booked with Port::reserve, as on
 * DirectConnection. The link occupancy and the traffic totals are real
 * multi-writer state — senders on different domain workers share a
 * destination's ingress link — and sit behind one mutex taken at send;
 * delivery takes no lock.
 */
class SwitchedNetwork : public sim::Connection,
                        public sim::EventHandler,
                        public introspect::Inspectable
{
  public:
    struct Config
    {
        /** Propagation latency per hop. */
        sim::VTime latency = 50 * sim::kNanosecond;
        /** Ingress bandwidth per destination port, bytes per second. */
        double bytesPerSecond = 16.0 * 1e9;
    };

    SwitchedNetwork(sim::Engine *engine, std::string name,
                    const Config &cfg);
    ~SwitchedNetwork() override;

    const std::string &name() const { return name_; }

    const std::string &connectionName() const override { return name_; }

    const std::vector<sim::Port *> &attachedPorts() const override
    {
        return ports_;
    }

    void plugIn(sim::Port *port) override;
    sim::SendStatus send(sim::Msg &msg) override;

    sim::VTime minLatency() const override { return cfg_.latency; }

    /** Delivery: the engine hands back the DeliverEvents send() queued. */
    void handle(sim::Event &event) override;

    sim::NameRef profName() const override { return deliverName_; }

    std::string handlerName() const override { return deliverName_.str(); }

    /** Messages in flight across the network. */
    std::size_t
    inFlight() const
    {
        return inFlight_.load(std::memory_order_relaxed);
    }

    /** Total bytes ever transferred. */
    std::uint64_t
    totalBytes() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return totalBytes_;
    }

  private:
    sim::Engine *engine_;
    std::string name_;
    /** Interned "<name>::deliver" profiler label. */
    sim::NameRef deliverName_;
    Config cfg_;
    /** Picoseconds to serialize one byte onto a link. */
    double psPerByte_;

    std::vector<sim::Port *> ports_;
    /** Guards linkFreeAt_ and the totals. Leaf lock. */
    mutable std::mutex mu_;
    /** Earliest time each destination's ingress link is free. */
    std::map<sim::Port *, sim::VTime> linkFreeAt_;
    /** Sent and not yet delivered (delivery decrements it lock-free). */
    std::atomic<std::size_t> inFlight_{0};
    std::uint64_t totalBytes_ = 0;
    std::uint64_t totalMsgs_ = 0;
};

} // namespace net
} // namespace akita

#endif // AKITA_NET_SWITCHED_HH
