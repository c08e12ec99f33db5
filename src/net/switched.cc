#include "net/switched.hh"

#include <algorithm>
#include <stdexcept>

namespace akita
{
namespace net
{

SwitchedNetwork::SwitchedNetwork(sim::Engine *engine, std::string name,
                                 const Config &cfg)
    : engine_(engine), name_(std::move(name)),
      deliverName_(name_ + "::deliver"), cfg_(cfg),
      psPerByte_(static_cast<double>(sim::kSecond) / cfg.bytesPerSecond)
{
    declareField("in_flight", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(inFlight()));
    });
    declareField("total_bytes", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(totalBytes()));
    });
    declareField("total_msgs", [this]() {
        std::lock_guard<std::mutex> lk(mu_);
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(totalMsgs_));
    });
    engine_->noteConnection(this);
}

SwitchedNetwork::~SwitchedNetwork()
{
    engine_->noteConnectionDestroyed(this);
}

void
SwitchedNetwork::plugIn(sim::Port *port)
{
    ports_.push_back(port);
    port->setConnection(this);
}

sim::SendStatus
SwitchedNetwork::send(sim::Msg &msg)
{
    sim::Port *dst = msg.dst;
    if (dst->connection() != this) {
        throw std::runtime_error("network " + name_ +
                                 " cannot reach port " + dst->fullName());
    }
    if (dst->reserve(msg.src != nullptr ? msg.src->owner() : nullptr) !=
        sim::SendStatus::Ok)
        return sim::SendStatus::Busy;

    sim::VTime now = engine_->now();
    sim::VTime done;
    {
        std::lock_guard<std::mutex> lk(mu_);
        sim::VTime &freeAt = linkFreeAt_[dst];
        sim::VTime start = std::max(now, freeAt);
        auto serialize = static_cast<sim::VTime>(
            static_cast<double>(msg.trafficBytes) * psPerByte_);
        done = start + std::max<sim::VTime>(serialize, 1);
        freeAt = done;
        totalBytes_ += msg.trafficBytes;
        totalMsgs_++;
    }
    inFlight_.fetch_add(1, std::memory_order_relaxed);
    msg.sendTime = now;

    engine_->schedule(std::make_unique<sim::DeliverEvent>(
        done + cfg_.latency, this, sim::MsgPtr(&msg)));
    return sim::SendStatus::Ok;
}

void
SwitchedNetwork::handle(sim::Event &event)
{
    sim::MsgPtr &msg = static_cast<sim::DeliverEvent &>(event).msg;
    sim::Port *dst = msg->dst;
    inFlight_.fetch_sub(1, std::memory_order_relaxed);
    dst->deliver(std::move(msg));
}

} // namespace net
} // namespace akita
