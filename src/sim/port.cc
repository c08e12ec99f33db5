#include "sim/port.hh"

#include <algorithm>
#include <stdexcept>

#include "sim/component.hh"
#include "sim/connection.hh"

namespace akita
{
namespace sim
{

std::atomic<std::uint64_t> Msg::nextId_{0};

Port::Port(Component *owner, std::string name, std::size_t buf_capacity)
    : owner_(owner), name_(std::move(name)),
      fullName_(owner ? owner->name() + "." + name_ : name_),
      buf_(fullName_ + ".Buf", buf_capacity)
{
}

SendStatus
Port::sendMsg(Msg &msg)
{
    if (conn_ == nullptr) {
        throw std::runtime_error("port " + fullName_ +
                                 " is not plugged into a connection");
    }
    if (msg.dst == nullptr) {
        throw std::runtime_error("message sent from " + fullName_ +
                                 " has no destination");
    }
    // Restore the previous source on failure: components that forward a
    // buffered message retry later and must still see the original
    // sender when they re-peek it.
    Port *prevSrc = msg.src;
    msg.src = this;
    SendStatus st = conn_->send(msg);
    if (st == SendStatus::Ok) {
        totalSent_.inc();
        totalSentBytes_.inc(msg.trafficBytes);
    } else {
        msg.src = prevSrc;
        totalRejected_.inc();
    }
    return st;
}

MsgPtr
Port::retrieveIncoming()
{
    MsgPtr m = buf_.pop();
    if (m != nullptr) {
        invokeHook(hookPosPortRetrieve, m.get());
        releaseSlot();
    }
    return m;
}

MsgPtr
Port::retrieveIncomingMatching(
    const std::function<bool(const Msg &)> &pred)
{
    MsgPtr m = buf_.popMatching(pred);
    if (m != nullptr) {
        invokeHook(hookPosPortRetrieve, m.get());
        releaseSlot();
    }
    return m;
}

void
Port::deliver(MsgPtr msg)
{
    invokeHook(hookPosPortDeliver, msg.get());
    totalReceived_.inc();
    buf_.push(std::move(msg));
    if (owner_ != nullptr)
        owner_->wake();
}

bool
Port::tryReserve()
{
    // Bounded: a failed CAS means another sender booked or the owner
    // freed a slot, so a few retries settle it; past them the caller
    // falls back to the registered Busy path, which cannot lose a wake.
    constexpr int kTries = 8;
    const std::size_t cap = buf_.capacity();
    std::size_t v = slots_.load(std::memory_order_seq_cst);
    for (int i = 0; i < kTries && v < cap; i++) {
        if (slots_.compare_exchange_weak(v, v + 1,
                                         std::memory_order_seq_cst))
            return true;
    }
    return false;
}

SendStatus
Port::reserve(Component *sender)
{
    if (tryReserve())
        return SendStatus::Ok;
    if (sender == nullptr)
        return SendStatus::Busy;
    {
        std::lock_guard<std::mutex> lk(blockedMu_);
        if (std::find(blocked_.begin(), blocked_.end(), sender) ==
            blocked_.end())
            blocked_.push_back(sender);
        hasBlocked_.store(true, std::memory_order_seq_cst);
    }
    // Dekker re-check, paired with releaseSlot() (register, then
    // re-read the slots; free a slot, then read the flag). In the
    // seq_cst order either the owner's decrement precedes our flag
    // store, so this re-read sees the free slot, or its flag read
    // follows the store and it wakes us. A slot freed between the
    // first try and the registration is never lost. A stale
    // registration left by a successful re-check costs one spurious
    // wake.
    return tryReserve() ? SendStatus::Ok : SendStatus::Busy;
}

void
Port::releaseSlot()
{
    slots_.fetch_sub(1, std::memory_order_seq_cst);
    if (!hasBlocked_.load(std::memory_order_seq_cst))
        return;
    {
        std::lock_guard<std::mutex> lk(blockedMu_);
        waking_.swap(blocked_);
        hasBlocked_.store(false, std::memory_order_relaxed);
    }
    // Wake outside the lock: wakeComponent re-enters the engine, which
    // takes its own locks to post a wake to another thread. It only
    // schedules a tick, so it cannot re-enter this releaseSlot().
    for (Component *c : waking_)
        c->engine()->wakeComponent(c);
    waking_.clear(); // Keeps the capacity for the next swap.
}

std::vector<Component *>
Port::blockedSenders() const
{
    std::lock_guard<std::mutex> lk(blockedMu_);
    return blocked_;
}

} // namespace sim
} // namespace akita
