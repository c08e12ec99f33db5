/**
 * @file
 * Bandwidth- and latency-modeled inter-chiplet network.
 */

#ifndef AKITA_NET_SWITCHED_HH
#define AKITA_NET_SWITCHED_HH

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
 * Internally synchronized like DirectConnection: link occupancy,
 * reservations, and traffic totals sit behind one mutex so co-timed
 * sends and deliveries from different domain workers stay consistent.
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
    sim::SendStatus send(sim::MsgPtr msg) override;
    void notifyAvailable(sim::Port *dst) override;
    std::vector<BlockedSender> blockedSnapshot() const override;

    sim::VTime minLatency() const override { return cfg_.latency; }

    /** Delivery: the engine hands back the DeliverEvents send() queued. */
    void handle(sim::Event &event) override;

    sim::NameRef profName() const override { return deliverName_; }

    std::string handlerName() const override { return deliverName_.str(); }

    /** Messages in flight across the network. */
    std::size_t
    inFlight() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return inFlightTotal_;
    }

    /** Total bytes ever transferred. */
    std::uint64_t
    totalBytes() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return totalBytes_;
    }

  private:
    void deliver(sim::MsgPtr msg);

    sim::Engine *engine_;
    std::string name_;
    /** Interned "<name>::deliver" profiler label. */
    sim::NameRef deliverName_;
    Config cfg_;
    /** Picoseconds to serialize one byte onto a link. */
    double psPerByte_;

    /**
     * Guards linkFreeAt_, pending_, blockedSenders_, and the totals.
     * Lock order: network -> buffer; wake() runs after release.
     */
    mutable std::mutex mu_;
    std::vector<sim::Port *> ports_;
    /** Earliest time each destination's ingress link is free. */
    std::map<sim::Port *, sim::VTime> linkFreeAt_;
    /** Space reserved at each destination by in-flight messages. */
    std::map<sim::Port *, std::size_t> pending_;
    /** Insertion-ordered for deterministic wake order. */
    std::map<sim::Port *, std::vector<sim::Component *>> blockedSenders_;

    std::size_t inFlightTotal_ = 0;
    std::uint64_t totalBytes_ = 0;
    std::uint64_t totalMsgs_ = 0;
};

} // namespace net
} // namespace akita

#endif // AKITA_NET_SWITCHED_HH
