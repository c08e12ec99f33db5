/**
 * @file
 * Ports: the endpoints through which components exchange messages.
 */

#ifndef AKITA_SIM_PORT_HH
#define AKITA_SIM_PORT_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "metrics/instrument.hh"
#include "sim/buffer.hh"
#include "sim/hook.hh"
#include "sim/msg.hh"

namespace akita
{
namespace sim
{

class Component;
class Connection;

/** Result of Port::send. */
enum class SendStatus
{
    /** Message accepted; delivery is scheduled. */
    Ok,
    /** Destination cannot accept more traffic; retry after wake. */
    Busy,
};

/**
 * A named endpoint owned by a component.
 *
 * Each port has a bounded incoming buffer; the buffer is automatically
 * visible to the bottleneck analyzer (the Go original discovers it via
 * reflection; here the component base class enumerates its ports).
 *
 * The port also holds the delivery-side flow control every connection
 * shares: a slot counter (messages buffered plus in flight towards
 * this port) that senders on any thread book with a bounded CAS, and
 * the list of senders to wake when a slot frees. Everything else —
 * send(), the buffer, retrieval — belongs to the owning component's
 * thread.
 */
class Port : public Hookable
{
  public:
    /**
     * @param owner Owning component; receives wake notifications.
     * @param name Port name relative to the owner, e.g. "TopPort".
     * @param buf_capacity Incoming-buffer capacity.
     */
    Port(Component *owner, std::string name, std::size_t buf_capacity);

    Component *owner() const { return owner_; }
    const std::string &name() const { return name_; }

    /** Hierarchical name: "<owner>.<port>". */
    const std::string &fullName() const { return fullName_; }

    /** Wires this port to a connection (done by the connection). */
    void setConnection(Connection *conn) { conn_ = conn; }

    Connection *connection() const { return conn_; }

    /**
     * Sends a message; msg->dst must identify the destination port.
     *
     * On Busy the sender's component is registered for a wake when the
     * destination frees space, so sleeping senders are re-ticked.
     *
     * Takes any message pointer (MsgPtr, MemReqPtr, ...) by reference
     * and borrows the message: the connection retains it only into the
     * delivery event on success, so a Busy return touches no refcount.
     * (A `const MsgPtr &` parameter would make a converting temporary,
     * and thus a retain/release pair, for every derived pointer.)
     */
    template <typename T>
    SendStatus
    send(const IntrusivePtr<T> &msg)
    {
        return sendMsg(*msg);
    }

    /** Incoming buffer (exposed for monitoring and tests). */
    Buffer &buf() { return buf_; }
    const Buffer &buf() const { return buf_; }

    /** The oldest delivered message without consuming it. */
    MsgPtr peekIncoming() const { return buf_.peek(); }

    /**
     * Consumes the oldest delivered message.
     *
     * Frees the message's slot and wakes senders blocked on it.
     */
    MsgPtr retrieveIncoming();

    /**
     * Consumes the oldest delivered message satisfying @p pred,
     * bypassing head-of-line blocking (virtual-channel semantics).
     */
    MsgPtr
    retrieveIncomingMatching(const std::function<bool(const Msg &)> &pred);

    /**
     * Delivers a message into the incoming buffer (connection side) and
     * wakes the owning component. Runs on the owner's thread; the slot
     * was booked by reserve() when the message was sent.
     */
    void deliver(MsgPtr msg);

    /**
     * Connection side of a send, callable from any thread: books one
     * buffer slot for a message about to go in flight to this port.
     *
     * On Busy, @p sender (when non-null) is registered and woken
     * through Engine::wakeComponent once the owner retrieves a message.
     * The slot counter may over-count for a moment (a retrieve frees
     * the buffer entry before the slot) but never under-counts, so an
     * in-flight message always finds room.
     */
    SendStatus reserve(Component *sender);

    /**
     * Senders blocked on this port's buffer, in registration order
     * (hang analysis: each is a wait-for edge sender -> owner).
     */
    std::vector<Component *> blockedSenders() const;

    /**
     * Traffic counters. Backed by relaxed atomics so monitor threads
     * (throughput view, metrics sampler) read them without taking the
     * engine lock.
     */
    /** Total messages ever sent from this port. */
    std::uint64_t totalSent() const { return totalSent_.value(); }

    /** Total sends rejected with Busy (backpressure indicator). */
    std::uint64_t totalSendRejections() const { return totalRejected_.value(); }

    /** Total bytes successfully sent from this port. */
    std::uint64_t totalSentBytes() const { return totalSentBytes_.value(); }

    /** Total messages ever delivered into this port. */
    std::uint64_t totalReceived() const { return totalReceived_.value(); }

  private:
    friend class DomainEngine;

    SendStatus sendMsg(Msg &msg);

    /** The bounded CAS on slots_; false when the buffer is booked up. */
    bool tryReserve();

    /** Frees the slot of a retrieved message; wakes blocked senders. */
    void releaseSlot();

    Component *owner_;
    std::string name_;
    std::string fullName_;
    Buffer buf_;
    Connection *conn_ = nullptr;
    /** Messages buffered or in flight towards this port. */
    std::atomic<std::size_t> slots_{0};
    /** Set while blocked_ is non-empty; lets releaseSlot skip the lock. */
    std::atomic<bool> hasBlocked_{false};
    /** Guards blocked_. Taken only on the Busy path and to wake. */
    mutable std::mutex blockedMu_;
    /**
     * Components to wake when a slot frees. Insertion-ordered (not a
     * set): wake order must be deterministic, and pointer ordering
     * varies across platform instantiations.
     */
    std::vector<Component *> blocked_;
    /**
     * Owner-only scratch list releaseSlot() wakes from, outside the
     * lock. It and blocked_ trade buffers, so a wake allocates nothing.
     */
    std::vector<Component *> waking_;
    metrics::Counter totalSent_;
    metrics::Counter totalRejected_;
    metrics::Counter totalSentBytes_;
    metrics::Counter totalReceived_;
    /**
     * DomainEngine routing cache: (partition epoch << 32) | domain
     * index. Delivery events route by destination port; hashing the
     * owning component on every cross-domain send is measurable on
     * the hot path, so the engine memoizes the answer here and a
     * repartition invalidates it by bumping the epoch. Multiple
     * workers may race to fill it with the same value — hence the
     * relaxed atomic, not a plain field.
     */
    mutable std::atomic<std::uint64_t> routeHint_{0};
};

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_PORT_HH
