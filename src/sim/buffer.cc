#include "sim/buffer.hh"

#include <stdexcept>

namespace akita
{
namespace sim
{

Buffer::Buffer(std::string name, std::size_t capacity)
    : name_(std::move(name)), capacity_(capacity == 0 ? 1 : capacity)
{
    declareField("size", [this]() {
        return introspect::Value::ofInt(static_cast<std::int64_t>(size()));
    });
    declareField("capacity", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(capacity_));
    });
    declareField("total_pushed", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(totalPushed()));
    });
    declareField("peak_size", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(peakSize()));
    });
}

void
Buffer::push(MsgPtr msg)
{
    if (q_.size() >= capacity_) {
        throw std::runtime_error("buffer overflow on " + name_ +
                                 ": push on a full buffer");
    }
    q_.push_back(std::move(msg));
    totalPushed_.inc();
    occupancy_.set(static_cast<double>(q_.size()));
    if (q_.size() > peakSize_)
        peakSize_ = q_.size();
}

MsgPtr
Buffer::popMatching(const std::function<bool(const Msg &)> &pred)
{
    for (auto it = q_.begin(); it != q_.end(); ++it) {
        if (pred(**it)) {
            MsgPtr m = std::move(*it);
            q_.erase(it);
            occupancy_.set(static_cast<double>(q_.size()));
            return m;
        }
    }
    return nullptr;
}

MsgPtr
Buffer::pop()
{
    if (q_.empty())
        return nullptr;
    MsgPtr m = std::move(q_.front());
    q_.pop_front();
    occupancy_.set(static_cast<double>(q_.size()));
    return m;
}

} // namespace sim
} // namespace akita
