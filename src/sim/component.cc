#include "sim/component.hh"

namespace akita
{
namespace sim
{

Component::Component(Engine *engine, std::string name)
    : engine_(engine), name_(std::move(name))
{
    engine_->noteComponent(this);
}

Component::~Component()
{
    engine_->noteComponentDestroyed(this);
}

Port *
Component::addPort(const std::string &port_name, std::size_t buf_capacity)
{
    ports_.push_back(std::make_unique<Port>(this, port_name, buf_capacity));
    return ports_.back().get();
}

Port *
Component::port(const std::string &port_name) const
{
    for (const auto &p : ports_) {
        if (p->name() == port_name)
            return p.get();
    }
    return nullptr;
}

std::vector<Buffer *>
Component::buffers() const
{
    std::vector<Buffer *> out;
    out.reserve(ports_.size() + extraBuffers_.size());
    for (const auto &p : ports_)
        out.push_back(&p->buf());
    for (Buffer *b : extraBuffers_)
        out.push_back(b);
    return out;
}

TickingComponent::TickingComponent(Engine *engine, std::string name,
                                   Freq freq)
    : Component(engine, std::move(name)), freq_(freq),
      tickName_(this->name() + "::tick")
{
    declareField("asleep", [this]() {
        return introspect::Value::ofBool(asleep());
    });
    declareField("total_ticks", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(totalTicks()));
    });
    declareField("progress_ticks", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(progressTicks()));
    });
}

void
TickingComponent::tickLater()
{
    scheduleTickAt(freq_.nextTick(engine()->now()));
}

void
TickingComponent::scheduleTickAt(VTime t)
{
    VTime target = std::max(t, freq_.nextTick(engine()->now()));
    // Dedup only exact-time requests. Suppressing a LATER target
    // because an earlier tick is pending would lose deadlines: the
    // earlier tick may find nothing to do and sleep without re-arming,
    // and the deadline event would never exist.
    if (tickScheduled_.load(std::memory_order_relaxed) && tickAt_ == target)
        return;
    tickScheduled_.store(true, std::memory_order_relaxed);
    tickAt_ = target;
    engine()->schedule(std::make_unique<Event>(target, this));
}

void
TickingComponent::handle(Event &)
{
    VTime now = engine()->now();
    if (now >= tickAt_)
        tickScheduled_.store(false, std::memory_order_relaxed);
    if (everTicked_ && lastTickAt_ == now)
        return; // Duplicate event in the same cycle: already ticked.
    lastTickAt_ = now;
    everTicked_ = true;

    totalTicks_.inc();
    bool progress = tick();
    if (progress) {
        progressTicks_.inc();
        tickLater();
    }
    // No progress: stay asleep until wake() or an armed deadline tick.
}

} // namespace sim
} // namespace akita
