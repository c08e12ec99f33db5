#include "sim/engine.hh"

#include <thread>

#include "sim/component.hh"
#include "sim/prof.hh"

namespace akita
{
namespace sim
{

const HookPos hookPosBeforeEvent{"BeforeEvent"};
const HookPos hookPosAfterEvent{"AfterEvent"};
const HookPos hookPosQueueDrained{"QueueDrained"};
const HookPos hookPosPortDeliver{"PortDeliver"};
const HookPos hookPosPortRetrieve{"PortRetrieve"};

SerialEngine::SerialEngine()
{
    declareField("now_ps", [this]() {
        return introspect::Value::ofInt(static_cast<std::int64_t>(now()));
    });
    declareField("queue_len", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(queue_.size()));
    });
    declareField("total_events", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(eventCount()));
    });
    declareField("total_scheduled", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(scheduledCount()));
    });
    declareField("paused",
                 [this]() { return introspect::Value::ofBool(paused()); });
    declareField("running",
                 [this]() { return introspect::Value::ofBool(running()); });
}

void
SerialEngine::schedule(EventPtr event)
{
    if (concurrent_) {
        // The past-check must run under the lock: a cross-thread
        // schedule could otherwise pass the check against a stale now()
        // and still land in the past once the simulation thread
        // advances time.
        std::lock_guard<std::recursive_mutex> lk(mu_);
        if (event->time() < now()) {
            throw std::runtime_error(
                "cannot schedule event in the past (t=" +
                std::to_string(event->time()) +
                ", now=" + std::to_string(now()) + ")");
        }
        totalScheduled_.inc();
        queue_.push(std::move(event));
        // Only a drained run loop waits for new events, and it sets
        // drainedWaiting_ under mu_, which we hold: a false read here
        // cannot miss a waiter.
        if (drainedWaiting_.load(std::memory_order_relaxed))
            cv_.notify_all();
    } else {
        if (event->time() < now()) {
            throw std::runtime_error(
                "cannot schedule event in the past (t=" +
                std::to_string(event->time()) +
                ", now=" + std::to_string(now()) + ")");
        }
        totalScheduled_.inc();
        queue_.push(std::move(event));
    }
}

void
SerialEngine::stop()
{
    stopRequested_.store(true);
    if (concurrent_)
        cv_.notify_all();
    notifyState("stop");
}

void
SerialEngine::pause()
{
    paused_.store(true);
    notifyState("pause");
}

void
SerialEngine::resume()
{
    paused_.store(false);
    if (concurrent_)
        cv_.notify_all();
    notifyState("resume");
}

std::size_t
SerialEngine::queueLength() const
{
    // Through withLock's announced handoff: a bare lock here would
    // queue behind the run loop, which re-takes mu_ between batches
    // unless a waiter has announced itself.
    std::size_t n = 0;
    withLock([&]() { n = queue_.size(); });
    return n;
}

void
SerialEngine::withLock(const std::function<void()> &fn) const
{
    if (concurrent_) {
        // Announce the wait so the event loop yields between batches
        // instead of immediately re-acquiring the lock (monitor
        // fairness); the count stays up until fn has finished, so the
        // loop cannot starve a queue of waiting monitor threads.
        lockWaiters_.fetch_add(1, std::memory_order_acq_rel);
        {
            std::lock_guard<std::recursive_mutex> lk(mu_);
            fn();
        }
        lockWaiters_.fetch_sub(1, std::memory_order_acq_rel);
    } else {
        fn();
    }
}

void
Engine::wakeComponent(Component *c)
{
    c->wake();
}

void
SerialEngine::executeEvent(Event &event)
{
    invokeHook(hookPosBeforeEvent, &event);
    if (Profiler::instance().enabled()) {
        // profName() is a pre-interned id: no string build, no lookup.
        ProfScope scope(event.handler()->profName());
        event.handler()->handle(event);
    } else {
        event.handler()->handle(event);
    }
    invokeHook(hookPosAfterEvent, &event);
    totalEvents_.inc();
}

RunResult
SerialEngine::runUnlocked()
{
    while (!stopRequested_.load(std::memory_order_relaxed)) {
        if (queue_.empty()) {
            invokeHook(hookPosQueueDrained, nullptr);
            return RunResult::Drained;
        }
        EventPtr ev = queue_.pop();
        now_.store(ev->time(), std::memory_order_relaxed);
        executeEvent(*ev);
    }
    return RunResult::Stopped;
}

RunResult
SerialEngine::runLocked()
{
    std::unique_lock<std::recursive_mutex> lk(mu_);
    while (!stopRequested_.load(std::memory_order_relaxed)) {
        if (paused_.load(std::memory_order_relaxed)) {
            cv_.wait(lk, [this]() {
                return !paused_.load() || stopRequested_.load();
            });
            continue;
        }
        if (queue_.empty()) {
            invokeHook(hookPosQueueDrained, nullptr);
            if (!waitWhenEmpty_)
                return RunResult::Drained;
            drainedWaiting_.store(true);
            notifyState("drained");
            cv_.wait(lk, [this]() {
                return !queue_.empty() || stopRequested_.load();
            });
            drainedWaiting_.store(false);
            continue;
        }
        // Execute a batch of events per lock acquisition: taking the
        // lock per event would cost a measurable fraction of the event
        // loop, while a monitor request only needs *a* consistent
        // point, not the very next one. Pause/stop are honored between
        // batches, and the lock is released after each batch so
        // monitor threads get a turn.
        for (int i = 0; i < lockBatch_; i++) {
            if (queue_.empty() ||
                stopRequested_.load(std::memory_order_relaxed) ||
                paused_.load(std::memory_order_relaxed))
                break;
            EventPtr ev = queue_.pop();
            now_.store(ev->time(), std::memory_order_relaxed);
            executeEvent(*ev);
        }
        lk.unlock();
        // Handoff: a bare unlock/lock on a mutex gives waiting monitor
        // threads no fairness guarantee — the loop usually re-acquires
        // immediately and a withLock() caller can starve for thousands
        // of batches. Spin-yield until the announced waiters drain.
        while (lockWaiters_.load(std::memory_order_acquire) > 0 &&
               !stopRequested_.load(std::memory_order_relaxed)) {
            std::this_thread::yield();
        }
        lk.lock();
    }
    return RunResult::Stopped;
}

RunResult
SerialEngine::run()
{
    stopRequested_.store(false);
    running_.store(true);
    notifyState("run_start");
    RunResult result =
        concurrent_ ? runLocked() : runUnlocked();
    running_.store(false);
    if (concurrent_)
        cv_.notify_all();
    notifyState("run_end");
    return result;
}

} // namespace sim
} // namespace akita
