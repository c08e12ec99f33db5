/**
 * @file
 * The discrete-event simulation engine.
 */

#ifndef AKITA_SIM_ENGINE_HH
#define AKITA_SIM_ENGINE_HH

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <stdexcept>

#include "introspect/field.hh"
#include "metrics/instrument.hh"
#include "sim/event.hh"
#include "sim/hook.hh"
#include "sim/time.hh"

namespace akita
{
namespace sim
{

class Component;
class Connection;

/** Why Engine::run returned. */
enum class RunResult
{
    /** The event queue drained naturally. */
    Drained,
    /** Engine::stop was called. */
    Stopped,
};

/**
 * Abstract engine interface (mirrors Akita's Engine).
 *
 * RTM's registerEngine accepts this interface, so alternative engines
 * (e.g. the domain engine) reuse the monitor unchanged. Beyond the
 * core schedule/run surface, the interface carries the *monitor
 * contract*: concurrent-access mode, pause/resume, wait-when-empty,
 * drained-waiting (the hang signature), and withLock — the consistent
 * snapshot point every RTM view borrows.
 */
class Engine : public Hookable, public introspect::Inspectable
{
  public:
    /** Schedules an event; its time must not precede now(). */
    virtual void schedule(EventPtr event) = 0;

    /**
     * Convenience: schedules a callable at an absolute time, with a
     * pre-interned profiler label (the hot-path overload).
     */
    void
    scheduleAt(VTime time, NameRef name, std::function<void()> fn)
    {
        schedule(std::make_unique<FuncEvent>(time, name, std::move(fn)));
    }

    /** Convenience overload that interns @p name per call. */
    void
    scheduleAt(VTime time, const std::string &name,
               std::function<void()> fn)
    {
        scheduleAt(time, NameRef(name), std::move(fn));
    }

    /** Current virtual time. Safe to call from any thread. */
    virtual VTime now() const = 0;

    /** Runs events until the queue drains or stop() is called. */
    virtual RunResult run() = 0;

    /** Requests run() to return as soon as possible. Thread-safe. */
    virtual void stop() = 0;

    /** Total number of events executed so far. Thread-safe. */
    virtual std::uint64_t eventCount() const = 0;

    /** Total number of events ever scheduled. Thread-safe. */
    virtual std::uint64_t scheduledCount() const = 0;

    // ---- The monitor contract ----

    /**
     * Enables cross-thread access (monitor attached). Must be called
     * before run(); switching modes mid-run is not supported. Engines
     * that are always safe for cross-thread access may ignore it.
     */
    virtual void setConcurrentAccess(bool on) = 0;

    /** True when cross-thread access is safe. */
    virtual bool concurrentAccess() const = 0;

    /**
     * When true, a drained queue blocks run() instead of returning, so a
     * deadlocked simulation stays alive for inspection (and can be
     * revived by scheduling new events, e.g. RTM's Tick button).
     */
    virtual void setWaitWhenEmpty(bool on) = 0;

    /** Pauses execution before the next event. Thread-safe. */
    virtual void pause() = 0;

    /** Resumes a paused engine ("Kick Start"). Thread-safe. */
    virtual void resume() = 0;

    virtual bool paused() const = 0;

    /** True while run() is executing (possibly blocked). */
    virtual bool running() const = 0;

    /** True when run() is blocked on an empty queue (hang signature). */
    virtual bool drainedWaiting() const = 0;

    /** Number of events currently queued. Thread-safe. */
    virtual std::size_t queueLength() const = 0;

    /**
     * Runs @p fn at a consistent point (no event mid-execution).
     *
     * Requires concurrent access mode when called from a non-simulation
     * thread. May be called from event handlers.
     */
    virtual void withLock(const std::function<void()> &fn) const = 0;

    /**
     * Calls @p c's wake() on the thread that owns @p c — the one way
     * another thread may wake a component (a sender blocked on a port
     * owned elsewhere, the monitor's Tick control). The default wakes
     * inline, which is right for an engine with one simulation thread:
     * its event handlers own everything, and monitor threads call this
     * inside withLock.
     */
    virtual void wakeComponent(Component *c);

    // ---- Topology notes ----
    //
    // Components and connections announce themselves to the engine at
    // construction (and retract at destruction). Engines that partition
    // the simulation graph — the domain engine derives its domains and
    // lookahead windows from exactly this information — override these;
    // the serial engine ignores them. Called with the object
    // under construction: implementations must only record the pointer,
    // never call virtuals on it.

    /** A component was constructed against this engine. */
    virtual void noteComponent(Component *) {}

    /** A component registered via noteComponent is being destroyed. */
    virtual void noteComponentDestroyed(Component *) {}

    /** A connection was constructed against this engine. */
    virtual void noteConnection(Connection *) {}

    /** A connection registered via noteConnection is being destroyed. */
    virtual void noteConnectionDestroyed(Connection *) {}

    /**
     * Observes cold lifecycle transitions: "run_start", "run_end",
     * "pause", "resume", "drained", "stop". Fired only at state
     * changes — never per event — so attaching an observer costs the
     * hot path nothing (unlike a Hookable hook, which every event
     * would pay for). The callback runs on whichever thread caused the
     * transition and must not re-enter the engine. Set before run();
     * pass nullptr to detach.
     */
    void
    setStateObserver(std::function<void(const char *)> fn)
    {
        stateObserver_ = std::move(fn);
    }

  protected:
    /** Notifies the observer of a lifecycle transition, if attached. */
    void
    notifyState(const char *kind)
    {
        if (stateObserver_)
            stateObserver_(kind);
    }

  private:
    std::function<void(const char *)> stateObserver_;
};

/**
 * The serial (single simulation thread) engine.
 *
 * Concurrency model: by default the engine assumes it is the only thread
 * touching simulation state and takes no locks. When a monitor attaches,
 * it calls setConcurrentAccess(true); the engine then holds an internal
 * lock while executing each event, and external threads use withLock() to
 * obtain a consistent snapshot point *between* events. This is the
 * paper's "fine serialization granularity ... avoids the requirement for
 * global synchronization": a monitor request borrows the lock for one
 * component's worth of serialization and releases it.
 *
 * Pause/resume (the dashboard's simulation controls) and wait-when-empty
 * (which turns a drained queue into an inspectable hang instead of a
 * silent exit) are also provided here.
 */
class SerialEngine : public Engine
{
  public:
    SerialEngine();

    void schedule(EventPtr event) override;
    VTime now() const override { return now_.load(std::memory_order_relaxed); }
    RunResult run() override;
    void stop() override;

    std::uint64_t
    eventCount() const override
    {
        return totalEvents_.value();
    }

    std::uint64_t
    scheduledCount() const override
    {
        return totalScheduled_.value();
    }

    void setConcurrentAccess(bool on) override { concurrent_ = on; }

    bool concurrentAccess() const override { return concurrent_; }

    void setWaitWhenEmpty(bool on) override { waitWhenEmpty_ = on; }

    /**
     * Events executed per engine-lock acquisition in concurrent mode.
     *
     * Larger batches amortize the lock on the event loop; smaller
     * batches reduce the worst-case wait of a monitor request. At the
     * default (256) the batch lock itself is noise next to the event
     * cost (bench_micro's BM_EngineLockBatchSweep). What a monitored
     * run does pay is the process being multi-threaded: glibc then
     * takes the atomic path of every mutex, so each one left on the
     * event path costs more (BM_EngineThroughputConcurrentMode with
     * threaded:1 against threaded:0).
     */
    void
    setLockBatch(int n)
    {
        lockBatch_ = n < 1 ? 1 : n;
    }

    int lockBatch() const { return lockBatch_; }

    void pause() override;
    void resume() override;

    bool
    paused() const override
    {
        return paused_.load(std::memory_order_relaxed);
    }

    bool
    running() const override
    {
        return running_.load(std::memory_order_relaxed);
    }

    bool
    drainedWaiting() const override
    {
        return drainedWaiting_.load(std::memory_order_relaxed);
    }

    std::size_t queueLength() const override;

    void withLock(const std::function<void()> &fn) const override;

  private:
    RunResult runLocked();
    RunResult runUnlocked();
    void executeEvent(Event &event);

    EventQueue queue_;
    std::atomic<VTime> now_{0};
    /** Written only by the sim thread. */
    metrics::Counter totalEvents_;
    /**
     * Written by schedule(): under mu_ in concurrent mode, else by the
     * one thread a non-concurrent engine allows.
     */
    metrics::Counter totalScheduled_;

    bool concurrent_ = false;
    bool waitWhenEmpty_ = false;
    int lockBatch_ = 256;
    std::atomic<bool> paused_{false};
    std::atomic<bool> running_{false};
    std::atomic<bool> stopRequested_{false};
    std::atomic<bool> drainedWaiting_{false};
    /** Monitor threads currently waiting for (or holding) the lock. */
    mutable std::atomic<int> lockWaiters_{0};

    mutable std::recursive_mutex mu_;
    mutable std::condition_variable_any cv_;
};

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_ENGINE_HH
