/**
 * @file
 * Bounded, introspectable message buffers.
 *
 * Buffers are the monitor's window into backpressure: the bottleneck
 * analyzer ranks every registered buffer by occupancy, because a
 * persistently full buffer marks the component that cannot keep up
 * (paper Fig. 4).
 */

#ifndef AKITA_SIM_BUFFER_HH
#define AKITA_SIM_BUFFER_HH

#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "introspect/field.hh"
#include "metrics/instrument.hh"
#include "sim/msg.hh"

namespace akita
{
namespace sim
{

/**
 * A FIFO of messages with a hard capacity.
 *
 * push on a full buffer is a programming error (senders must check
 * canPush first); this is what forces explicit backpressure handling in
 * components.
 *
 * All operations are internally synchronized: under the domain engine
 * a sender's connection reads a port's occupancy from one domain worker
 * while the owning domain's worker pushes deliveries and pops it, and
 * monitor threads read it for the buffer views, concurrently.
 * Note a canPush()/push() pair is still not atomic across callers —
 * components rely on the connection-level reservation protocol (or on
 * being the buffer's only consumer) for that, same as the serial build.
 */
class Buffer : public introspect::Inspectable
{
  public:
    /**
     * @param name Hierarchical name, e.g. "GPU[1].SA[0].L1VROB[0].TopPort.Buf".
     * @param capacity Maximum number of buffered messages; must be >0.
     */
    Buffer(std::string name, std::size_t capacity);

    const std::string &name() const { return name_; }
    std::size_t capacity() const { return capacity_; }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return q_.size();
    }

    bool
    empty() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return q_.empty();
    }

    bool
    full() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return q_.size() >= capacity_;
    }

    /** Occupancy in [0,1]. */
    double
    fullness() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return static_cast<double>(q_.size()) /
               static_cast<double>(capacity_);
    }

    /** True when at least one more message fits. */
    bool
    canPush() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return q_.size() < capacity_;
    }

    /**
     * Appends a message.
     *
     * @throws std::runtime_error when full (backpressure violation).
     */
    void push(MsgPtr msg);

    /** The oldest message without removing it; nullptr when empty. */
    MsgPtr
    peek() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return q_.empty() ? nullptr : q_.front();
    }

    /** Removes and returns the oldest message; nullptr when empty. */
    MsgPtr pop();

    /**
     * Removes and returns the oldest message satisfying @p pred;
     * nullptr when none matches. Models a separate virtual channel
     * (e.g. write acknowledgments bypassing blocked read data).
     */
    MsgPtr popMatching(const std::function<bool(const Msg &)> &pred);

    /** Removes all messages. */
    void
    clear()
    {
        std::lock_guard<std::mutex> lk(mu_);
        q_.clear();
        occupancy_.set(0);
    }

    /** Total number of messages ever pushed. */
    std::uint64_t totalPushed() const { return totalPushed_.value(); }

    /**
     * Occupancy as of the last push/pop, readable from any thread
     * without any lock. May lag size() by an in-flight event.
     */
    std::size_t
    approxSize() const
    {
        return static_cast<std::size_t>(occupancy_.value());
    }

    /** Highest occupancy ever observed. */
    std::size_t
    peakSize() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return peakSize_;
    }

    /**
     * A consistent copy of the queued messages, oldest first.
     *
     * Copies under the buffer lock (refcount bumps only, no message
     * copies), so monitor-side consumers (buffer serializer, bottleneck
     * analyzer) can inspect contents while delivery events and the
     * owning component race on the buffer. Replaces the old contents()
     * accessor, which handed out the raw deque with no lock.
     */
    std::vector<MsgPtr>
    snapshot() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return std::vector<MsgPtr>(q_.begin(), q_.end());
    }

  private:
    std::string name_;
    std::size_t capacity_;
    /** Guards q_ and peakSize_. Leaf lock: never call out while held. */
    mutable std::mutex mu_;
    std::deque<MsgPtr> q_;
    metrics::Counter totalPushed_;
    metrics::Gauge occupancy_;
    std::size_t peakSize_ = 0;
};

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_BUFFER_HH
