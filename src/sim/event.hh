/**
 * @file
 * Events, event handlers, and the time-ordered event queue.
 */

#ifndef AKITA_SIM_EVENT_HH
#define AKITA_SIM_EVENT_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/name.hh"
#include "sim/pool.hh"
#include "sim/time.hh"

namespace akita
{
namespace sim
{

class Event;
class Port;
class DomainEngine;

/** Receiver of scheduled events. */
class EventHandler
{
  public:
    virtual ~EventHandler() = default;

    /** Invoked by the engine when the event's time arrives. */
    virtual void handle(Event &event) = 0;

    /**
     * Interned name used by the built-in profiler to attribute
     * event-handling time. Implementers intern once at construction;
     * the per-event cost is copying a 32-bit id. The default refers to
     * the generic "EventHandler" entry.
     */
    virtual NameRef profName() const { return NameRef(); }

    /**
     * Display name. Kept for logs and tests; the engines never call it
     * on the hot path (they key the profiler on profName()).
     */
    virtual std::string handlerName() const { return profName().str(); }
};

/**
 * A unit of work scheduled at a virtual time.
 *
 * Secondary events run after all primary events of the same time; the
 * engine otherwise preserves scheduling (FIFO) order among equal times.
 *
 * Events are allocated from the per-thread slab pool (class-scope
 * operator new/delete below): the engine allocates and frees at least
 * one event per simulated cycle, and the pool turns that from a malloc
 * round-trip into a freelist push/pop.
 */
class Event
{
  public:
    /**
     * @param time Virtual time at which the event fires.
     * @param handler Receiver; must outlive the event.
     * @param secondary Run after primary events of the same time.
     */
    Event(VTime time, EventHandler *handler, bool secondary = false)
        : time_(time), handler_(handler), secondary_(secondary)
    {
    }

    virtual ~Event() = default;

    static void *operator new(std::size_t n) { return poolAlloc(n); }
    static void operator delete(void *p) noexcept { poolFree(p); }

    VTime time() const { return time_; }
    EventHandler *handler() const { return handler_; }
    bool isSecondary() const { return secondary_; }

    /**
     * Destination port for message-delivery events (DeliverEvent
     * overrides), nullptr otherwise. The domain engine routes delivery
     * events to the domain owning the destination component without
     * needing RTTI on the hot path.
     */
    virtual Port *deliveryDst() const { return nullptr; }

  private:
    /**
     * The domain engine floors cross-domain wake/tick events up to the
     * destination domain's published horizon (see domain_engine.hh); no
     * one else may rewrite an event's time.
     */
    friend class DomainEngine;
    void setTime(VTime t) { time_ = t; }

    VTime time_;
    EventHandler *handler_;
    bool secondary_;
};

using EventPtr = std::unique_ptr<Event>;

/**
 * An event that invokes a captured callable, for ad-hoc scheduling.
 *
 * The event is its own handler, so the callable runs regardless of which
 * component scheduled it.
 */
class FuncEvent : public Event, public EventHandler
{
  public:
    /**
     * @param name Pre-interned profiler attribution label. Callers on
     *        the hot path intern once and reuse the ref.
     */
    FuncEvent(VTime time, NameRef name, std::function<void()> fn,
              bool secondary = false)
        : Event(time, this, secondary), name_(name), fn_(std::move(fn))
    {
    }

    /** Convenience: interns @p name per call (setup/test paths). */
    FuncEvent(VTime time, const std::string &name,
              std::function<void()> fn, bool secondary = false)
        : FuncEvent(time, NameRef(name), std::move(fn), secondary)
    {
    }

    void handle(Event &) override { fn_(); }

    NameRef profName() const override { return name_; }

    std::string handlerName() const override { return name_.str(); }

  private:
    NameRef name_;
    std::function<void()> fn_;
};

/**
 * Time-ordered queue of events: (time, primary-before-secondary, FIFO).
 *
 * Two-level structure replacing the former single binary heap. Events
 * land in per-timestamp buckets (append-only vectors, one for each
 * phase), and a small min-heap orders only the *distinct* live
 * timestamps. Pushing costs at most one hash lookup and a vector
 * append — co-timed events (the common case in cycle-aligned
 * simulations) never pay a per-event heap sift.
 *
 * Two cached bucket pointers skip even the hash lookup on the common
 * paths: the bucket of the last push time (a cycle's components all
 * tick at now + period) and the front bucket (every pop). Map nodes
 * are stable in memory, so the pointers stay valid until frontBucket()
 * extracts a drained node, which clears any cached pointer to it.
 *
 * Drained buckets are recycled: the map node and the vectors' capacity
 * survive in a small spare list instead of being freed, so a
 * steady-state simulation (e.g. an event chain marching one timestamp
 * at a time) allocates nothing per timestamp.
 *
 * Not internally synchronized: engines serialize access (the serial
 * engine with its run lock, the domain engine by giving each domain's
 * queue to its one worker).
 */
class EventQueue
{
  public:
    /** Inserts an event. */
    void push(EventPtr event);

    /**
     * Removes and returns the earliest event; queue must be non-empty.
     *
     * Order: time ascending; at equal times every primary event pops
     * before any secondary event; within the same (time, phase), FIFO.
     */
    EventPtr pop();

    /** Time of the earliest event; queue must be non-empty. */
    VTime peekTime() const;

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

  private:
    /** All events at one timestamp, split by phase, consumed by head. */
    struct Bucket
    {
        std::vector<EventPtr> primary;
        std::vector<EventPtr> secondary;
        std::size_t primaryHead = 0;
        std::size_t secondaryHead = 0;

        bool livePrimary() const { return primaryHead < primary.size(); }

        bool liveSecondary() const
        {
            return secondaryHead < secondary.size();
        }

        bool live() const { return livePrimary() || liveSecondary(); }
    };

    using BucketMap = std::unordered_map<VTime, Bucket>;

    /**
     * Bucket of the earliest live time, pruning drained heap entries;
     * nullptr when the queue is empty. Sets front_ and frontTime_.
     */
    Bucket *frontBucket() const;

    /** Caps the spare-node list (and the vector capacity it pins). */
    static constexpr std::size_t kMaxSpareNodes = 64;

    // Mutable: peekTime() lazily prunes drained timestamps.
    mutable BucketMap buckets_;
    /** Bucket of the last push time; nullptr when unknown. */
    mutable Bucket *pushBucket_ = nullptr;
    mutable VTime pushTime_ = 0;
    /**
     * Bucket of the earliest live time; nullptr when unknown. A push
     * earlier than frontTime_ clears it.
     */
    mutable Bucket *front_ = nullptr;
    mutable VTime frontTime_ = 0;
    /** Min-heap (std::greater) of live timestamps; may hold stale dups. */
    mutable std::vector<VTime> timesHeap_;
    /** Drained map nodes kept for reuse (capacity preserved). */
    mutable std::vector<BucketMap::node_type> spareNodes_;
    std::size_t size_ = 0;
};

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_EVENT_HH
