/**
 * @file
 * Connections deliver messages between plugged ports.
 */

#ifndef AKITA_SIM_CONNECTION_HH
#define AKITA_SIM_CONNECTION_HH

#include <string>
#include <vector>

#include "sim/engine.hh"
#include "sim/msg.hh"
#include "sim/port.hh"

namespace akita
{
namespace sim
{

class Component;

/**
 * A pooled event carrying one in-flight message to its destination.
 *
 * Connections used to schedule a FuncEvent whose lambda owned the
 * message — a per-message std::function heap allocation plus a
 * per-message name-string build. A typed event carries the message
 * directly: the pool serves the event, the intrusive pointer moves, and
 * the connection (an EventHandler with a pre-interned name) delivers.
 */
class DeliverEvent : public Event
{
  public:
    DeliverEvent(VTime time, EventHandler *handler, MsgPtr msg)
        : Event(time, handler), msg(std::move(msg))
    {
    }

    Port *deliveryDst() const override { return msg ? msg->dst : nullptr; }

    MsgPtr msg;
};

/** Transport between ports. */
class Connection
{
  public:
    virtual ~Connection() = default;

    /** Human-readable name (topology view). */
    virtual const std::string &connectionName() const = 0;

    /** Ports attached to this connection (topology view). */
    virtual const std::vector<Port *> &attachedPorts() const = 0;

    /** Attaches a port to this connection. */
    virtual void plugIn(Port *port) = 0;

    /**
     * Attempts to transmit; called by Port::send on the sender's
     * thread. Books the destination slot with Port::reserve.
     *
     * Borrows @p msg: only on success does the connection take a
     * reference, into the delivery event. A Busy return leaves the
     * refcount untouched.
     *
     * @return Busy when the destination (or the connection itself)
     *         cannot accept the message now.
     */
    virtual SendStatus send(Msg &msg) = 0;

    /**
     * Lower bound on the delivery latency of any message this
     * connection carries — the lookahead the domain engine may exploit
     * when the connection crosses a domain boundary. The conservative
     * default (0) forces the partitioner to keep all attached
     * components in one domain.
     */
    virtual VTime minLatency() const { return 0; }

    /** One sender currently blocked on a full destination port. */
    struct BlockedSender
    {
        Port *dst = nullptr;
        Component *sender = nullptr;
    };

    /**
     * Snapshot of every sender blocked on one of this connection's
     * ports (hang analysis: each entry is a wait-for edge sender →
     * dst owner).
     */
    std::vector<BlockedSender> blockedSnapshot() const;
};

/**
 * Fixed-latency point-to-multipoint connection (Akita DirectConnection).
 *
 * Any plugged port may send to any other plugged port; each message is
 * delivered after a fixed latency. Destination buffer space is reserved
 * at send time (Port::reserve), so in-flight messages never overflow
 * the destination: when no space remains, send returns Busy and the
 * sending component is woken once space frees.
 *
 * Stateless between send and delivery, so it needs no lock even when
 * it crosses domains: the sender's worker books the slot on the
 * destination port, and the delivery event runs on the worker that
 * owns the destination.
 */
class DirectConnection : public Connection, public EventHandler
{
  public:
    /**
     * @param latency Delivery latency; 0 delivers at the current time
     *        (still through the event queue, preserving order).
     */
    DirectConnection(Engine *engine, std::string name, VTime latency);
    ~DirectConnection() override;

    const std::string &name() const { return name_; }

    const std::string &connectionName() const override { return name_; }

    const std::vector<Port *> &attachedPorts() const override
    {
        return ports_;
    }

    void plugIn(Port *port) override;
    SendStatus send(Msg &msg) override;

    VTime minLatency() const override { return latency_; }

    /** Delivery: the engine hands back the DeliverEvents send() queued. */
    void handle(Event &event) override;

    NameRef profName() const override { return deliverName_; }

    std::string handlerName() const override { return deliverName_.str(); }

  private:
    Engine *engine_;
    std::string name_;
    VTime latency_;
    /** Interned "<name>::deliver" profiler label. */
    NameRef deliverName_;
    std::vector<Port *> ports_;
};

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_CONNECTION_HH
