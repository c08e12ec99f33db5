#include "sim/domain_engine.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "sim/component.hh"
#include "sim/connection.hh"
#include "sim/name.hh"
#include "sim/port.hh"
#include "sim/prof.hh"

namespace akita
{
namespace sim
{

namespace
{

/**
 * Which engine/domain the current thread is a worker of. Lets
 * schedule() from a running handler take the lock-free own-queue path,
 * now() return the exact local clock, and withLock() from a handler
 * run inline (the caller is already at a consistent point of its own
 * domain).
 */
struct TlsDom
{
    const DomainEngine *eng = nullptr;
    void *dom = nullptr;
};

thread_local TlsDom tlsDom;

/** A wake handed to the domain that owns @c target. */
class WakeEvent : public Event
{
  public:
    WakeEvent(VTime time, EventHandler *handler, Component *target)
        : Event(time, handler), target(target)
    {
    }

    Component *target;
};

[[noreturn]] void
throwPast(VTime t, VTime now)
{
    throw std::runtime_error("cannot schedule event in the past (t=" +
                             std::to_string(t) +
                             ", now=" + std::to_string(now) + ")");
}

std::uint64_t
wallNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Bounded /api/v1/domains repartition-event history. */
constexpr std::size_t kRepartHistoryCap = 64;

/**
 * Iterations of the pre-park spin. Steady-state cross-domain traffic
 * usually re-arms a blocked window within a handful of upstream batch
 * publications; a short spin rides that out without a futex round
 * trip, and parking keeps an under-subscribed host from burning a
 * timeslice. On a single-hardware-thread host the spin can never
 * succeed — no producer runs while we hold the core — so it is pure
 * added latency on every park and is disabled outright.
 */
inline int
idleSpinCount()
{
    static const int n =
        std::thread::hardware_concurrency() > 1 ? 128 : 0;
    return n;
}

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#else
    std::this_thread::yield();
#endif
}

} // namespace

DomainEngine::DomainEngine(int domains)
    : requested_(domains > 0
                     ? domains
                     : static_cast<int>(
                           std::max(1u, std::thread::hardware_concurrency())))
{
    declareField("now_ps", [this]() {
        return introspect::Value::ofInt(static_cast<std::int64_t>(now()));
    });
    declareField("queue_len", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(queueLength()));
    });
    declareField("total_events", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(eventCount()));
    });
    declareField("total_scheduled", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(scheduledCount()));
    });
    declareField("domains", [this]() {
        return introspect::Value::ofInt(
            partitioned_.load(std::memory_order_acquire)
                ? static_cast<std::int64_t>(doms_.size())
                : requested_);
    });
    declareField("paused",
                 [this]() { return introspect::Value::ofBool(paused()); });
    declareField("running",
                 [this]() { return introspect::Value::ofBool(running()); });
    declareField("mailbox_fast_total", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(mailboxFastTotal()));
    });
    declareField("mailbox_slow_total", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(mailboxSlowTotal()));
    });
}

DomainEngine::~DomainEngine() = default;

// ---- Registration ----

void
DomainEngine::noteComponent(Component *c)
{
    std::lock_guard<std::recursive_mutex> lk(setupMu_);
    if (!partitioned_.load(std::memory_order_relaxed)) {
        components_.push_back(c);
        return;
    }
    // Late registration (after the partition is fixed): the component
    // joins domain 0. Build the full graph before the first run (or
    // partition() call) to get a real placement.
    componentDom_.emplace(c, 0);
}

void
DomainEngine::noteComponentDestroyed(Component *c)
{
    std::lock_guard<std::recursive_mutex> lk(setupMu_);
    components_.erase(
        std::remove(components_.begin(), components_.end(), c),
        components_.end());
    pins_.erase(c);
    componentDom_.erase(c);
    auto it = componentHandler_.find(c);
    if (it != componentHandler_.end()) {
        handlerDom_.erase(it->second);
        componentHandler_.erase(it);
    }
}

void
DomainEngine::noteConnection(Connection *c)
{
    std::lock_guard<std::recursive_mutex> lk(setupMu_);
    if (!partitioned_.load(std::memory_order_relaxed))
        connections_.push_back(c);
}

void
DomainEngine::noteConnectionDestroyed(Connection *c)
{
    std::lock_guard<std::recursive_mutex> lk(setupMu_);
    connections_.erase(
        std::remove(connections_.begin(), connections_.end(), c),
        connections_.end());
}

void
DomainEngine::pinComponent(Component *c, int d)
{
    if (d < 0)
        throw std::invalid_argument("domain pin must be >= 0");
    std::lock_guard<std::recursive_mutex> lk(setupMu_);
    if (partitioned_.load(std::memory_order_relaxed))
        throw std::logic_error(
            "pinComponent: partition already computed");
    pins_[c] = d;
}

void
DomainEngine::assignHandler(EventHandler *h, int d)
{
    if (d < 0)
        throw std::invalid_argument("domain assignment must be >= 0");
    std::lock_guard<std::recursive_mutex> lk(setupMu_);
    if (partitioned_.load(std::memory_order_relaxed))
        throw std::logic_error(
            "assignHandler: partition already computed");
    handlerPins_[h] = d;
}

void
DomainEngine::setRingCapacity(int n)
{
    std::lock_guard<std::recursive_mutex> lk(setupMu_);
    if (partitioned_.load(std::memory_order_relaxed))
        throw std::logic_error(
            "setRingCapacity: partition already computed");
    ringCapacity_ = n < 1 ? 1 : n;
}

const DomainPartition &
DomainEngine::partition()
{
    ensurePartitioned();
    return part_;
}

void
DomainEngine::ensurePartitioned()
{
    if (partitioned_.load(std::memory_order_acquire))
        return;
    std::lock_guard<std::recursive_mutex> lk(setupMu_);
    if (partitioned_.load(std::memory_order_relaxed))
        return;

    part_ = partitionDomains(components_, connections_, requested_, pins_);

    // Handler assignments may name domains the component graph did not
    // produce (e.g. a component-less bench rig); create them.
    int numDoms = std::max(part_.numDomains, 1);
    for (const auto &kv : handlerPins_)
        numDoms = std::max(numDoms, kv.second + 1);
    part_.numDomains = numDoms;
    part_.members.resize(numDoms);
    part_.incoming.resize(numDoms);

    doms_.clear();
    doms_.reserve(numDoms);
    for (int i = 0; i < numDoms; i++) {
        doms_.push_back(std::make_unique<Dom>());
        Dom &d = *doms_.back();
        d.id = static_cast<std::size_t>(i);
        for (const auto &e : part_.incoming[i])
            d.in.push_back({static_cast<std::size_t>(e.src),
                            e.lookahead});
    }
    horizons_ = std::make_unique<HorizonSlot[]>(
        static_cast<std::size_t>(numDoms));
    buildRings();

    componentDom_.clear();
    handlerDom_.clear();
    componentHandler_.clear();
    for (Component *c : components_) {
        auto it = part_.domainOf.find(c);
        std::size_t dom =
            it != part_.domainOf.end()
                ? static_cast<std::size_t>(it->second)
                : 0;
        componentDom_.emplace(c, dom);
        if (auto *h = dynamic_cast<EventHandler *>(c)) {
            handlerDom_.emplace(h, dom);
            componentHandler_.emplace(c, h);
        }
    }
    for (const auto &kv : handlerPins_)
        handlerDom_[kv.first] = static_cast<std::size_t>(kv.second);

    memberNames_.assign(static_cast<std::size_t>(numDoms), {});
    for (int i = 0; i < numDoms; i++) {
        for (Component *c : part_.members[i])
            memberNames_[i].push_back(c->name());
    }
    edgeConnNames_.clear();
    for (const auto &e : part_.edges)
        edgeConnNames_.push_back(e.via ? e.via->connectionName()
                                       : std::string("?"));

    // Events scheduled before the partition existed (pending_ and
    // totalScheduled_ already counted them) now land in mailboxes; the
    // owning worker picks them up at its first drain.
    for (EventPtr &ev : setup_) {
        Dom *d = routeOf(*ev);
        std::lock_guard<std::mutex> mk(d->mailMu);
        if (ev->time() < d->mailMin)
            d->mailMin = ev->time();
        d->mail.push_back(std::move(ev));
        d->mailCount.fetch_add(1, std::memory_order_release);
    }
    setup_.clear();

    partitioned_.store(true, std::memory_order_release);
}

void
DomainEngine::buildRings()
{
    // New partition, new routing epoch: every cached Port::routeHint_
    // written under the previous cut stops validating. The counter is
    // shared by all engines in the process so epochs never collide
    // across instances either.
    static std::atomic<std::uint32_t> gRouteEpoch{1};
    routeEpoch_ = gRouteEpoch.fetch_add(1, std::memory_order_relaxed);
    const std::size_t n = doms_.size();
    for (auto &dp : doms_) {
        dp->inRings.clear();
        dp->outRing.assign(n, nullptr);
        dp->outNbr.clear();
    }
    for (std::size_t i = 0; i < n; i++) {
        Dom &d = *doms_[i];
        for (const InEdge &e : d.in) {
            d.inRings.push_back(std::make_unique<EdgeRing>(
                e.src, e.lookahead,
                static_cast<std::size_t>(ringCapacity_)));
            doms_[e.src]->outRing[i] = d.inRings.back().get();
            doms_[e.src]->outNbr.push_back(i);
        }
    }
}

void
DomainEngine::flushRingsToMail()
{
    for (auto &dp : doms_) {
        Dom &d = *dp;
        std::vector<EventPtr> fromRings;
        for (auto &r : d.inRings) {
            r->ring.drain([&fromRings](EventPtr ev) {
                fromRings.push_back(std::move(ev));
            });
        }
        if (fromRings.empty())
            continue;
        // Prepend: for any edge, ring events precede its mailbox
        // events in send order (a spill epoch only opens after the
        // ring stopped accepting), so ring-before-mail preserves
        // per-edge FIFO through the migration.
        for (EventPtr &ev : d.mail)
            fromRings.push_back(std::move(ev));
        d.mail.swap(fromRings);
    }
}

// ---- Targeted wakes (spin-then-park) ----

void
DomainEngine::wakeDom(Dom &d)
{
    // seq_cst on the generation bump and the parked-flag read pairs
    // with the consumer's flag store and generation read in
    // idleWait(): either the sleeper re-checks and sees the new
    // generation, or we see its parked flag and take the cv lock —
    // a wake can never fall between the two.
    d.wakeGen.fetch_add(1, std::memory_order_seq_cst);
    if (d.parkedFlag.load(std::memory_order_seq_cst) &&
        d.parkedFlag.exchange(false, std::memory_order_seq_cst)) {
        // The exchange claims the wake: a burst of pushes to one
        // parked domain pays for a single futex notify (the first
        // bump already satisfied the sleeper's predicate; once
        // notified it is guaranteed to wake and re-check). Without
        // the claim every message of a convoy would notify again.
        std::lock_guard<std::mutex> lk(d.parkMu);
        d.parkCv.notify_one();
    }
}

void
DomainEngine::wakeNeighbors(Dom &d)
{
    for (std::size_t i : d.outNbr)
        wakeDom(*doms_[i]);
}

void
DomainEngine::wakeAllDoms()
{
    if (!partitioned_.load(std::memory_order_acquire))
        return;
    for (auto &dp : doms_)
        wakeDom(*dp);
}

void
DomainEngine::idleWait(Dom &d, std::uint64_t wgen)
{
    auto ready = [&]() {
        return d.wakeGen.load(std::memory_order_seq_cst) != wgen ||
               stopRequested_.load(std::memory_order_relaxed) ||
               exitWorkers_.load(std::memory_order_relaxed) ||
               paused_.load(std::memory_order_relaxed) ||
               pending_.load(std::memory_order_relaxed) == 0;
    };
    for (int i = idleSpinCount(); i > 0; i--) {
        if (ready())
            return;
        cpuRelax();
    }
    // Donate the timeslice before paying for a futex park. When the
    // host is oversubscribed (more domains than cores) the producer
    // this domain is blocked on is runnable-but-not-running, and a
    // yield hands it the core for the price of the context switch a
    // park/wake cycle would force anyway — minus the futex wait and
    // notify syscalls. With no runnable peer, yield returns almost
    // immediately, so the ladder adds negligible latency to a real
    // park.
    for (int i = 0; i < 32; i++) {
        if (ready())
            return;
        std::this_thread::yield();
    }
    if (ready())
        return;
    {
        std::unique_lock<std::mutex> lk(d.parkMu);
        // Register before every wait, not once before the first: a
        // waker's exchange in wakeDom() may claim (clear) a flag it read
        // as set while this worker was between parks — a stale
        // registration — and its notify then finds this worker not yet
        // waiting, or wakes it with nothing new to see. Waiting again
        // on a cleared flag would make every later wakeDom() skip the
        // notify: a lost wake, with all workers asleep on futexes.
        // Each registration is followed by the predicate check under
        // parkMu, which a claiming waker must take to notify.
        for (;;) {
            d.parkedFlag.store(true, std::memory_order_seq_cst);
            if (ready())
                break;
            d.parkCv.wait(lk);
        }
    }
    d.parkedFlag.store(false, std::memory_order_relaxed);
}

// ---- Scheduling ----

DomainEngine::Dom *
DomainEngine::lookupDom(const Event &ev) const
{
    if (Port *p = ev.deliveryDst()) {
        // Epoch-tagged memo of the component hash lookup: valid for
        // the lifetime of the current partition (buildRings bumps the
        // epoch on every re-cut, and the epoch counter is process-
        // global so a hint written under any other engine or partition
        // can never validate here).
        const std::uint64_t hint =
            p->routeHint_.load(std::memory_order_relaxed);
        if ((hint >> 32) == routeEpoch_)
            return doms_[static_cast<std::uint32_t>(hint)].get();
        auto it = componentDom_.find(p->owner());
        if (it != componentDom_.end()) {
            p->routeHint_.store(
                (static_cast<std::uint64_t>(routeEpoch_) << 32) |
                    static_cast<std::uint32_t>(it->second),
                std::memory_order_relaxed);
            return doms_[it->second].get();
        }
    }
    if (ev.handler() == &wakeHandler_) {
        auto it = componentDom_.find(
            static_cast<const WakeEvent &>(ev).target);
        return it != componentDom_.end() ? doms_[it->second].get()
                                         : nullptr;
    }
    if (!handlerDom_.empty()) {
        auto it = handlerDom_.find(ev.handler());
        if (it != handlerDom_.end())
            return doms_[it->second].get();
    }
    return nullptr;
}

DomainEngine::Dom *
DomainEngine::routeOf(const Event &ev)
{
    if (Dom *d = lookupDom(ev))
        return d;
    // Unknown handler (ad-hoc FuncEvent, bench rig without
    // assignHandler): affinity to the scheduling worker's own domain
    // keeps it causally local; external threads feed domain 0.
    if (tlsDom.eng == this && tlsDom.dom != nullptr)
        return static_cast<Dom *>(tlsDom.dom);
    return doms_[0].get();
}

void
DomainEngine::schedule(EventPtr event)
{
    if (!partitioned_.load(std::memory_order_acquire)) {
        std::unique_lock<std::recursive_mutex> lk(setupMu_);
        if (!partitioned_.load(std::memory_order_relaxed)) {
            totalScheduled_.fetch_add(1, std::memory_order_relaxed);
            pending_.fetch_add(1, std::memory_order_acq_rel);
            setup_.push_back(std::move(event));
            return;
        }
    }
    if (tlsDom.eng == this) {
        // Worker context: the routing maps are stable for the whole
        // run step — a repartition only happens while every worker is
        // parked — so no lock is needed on this, the hot path.
        Dom *d = routeOf(*event);
        if (tlsDom.dom == d) {
            // Own-domain schedule from a running handler: the queue is
            // worker-owned, no lock needed. Past-check against the
            // exact local clock — identical to the serial engine.
            VTime c = d->clock.load(std::memory_order_relaxed);
            if (event->time() < c)
                throwPast(event->time(), c);
            d->sched.inc();
            pending_.fetch_add(1, std::memory_order_acq_rel);
            d->queue.push(std::move(event));
            d->qlen.store(d->queue.size(), std::memory_order_relaxed);
            return;
        }
        // Cross-domain from the one worker owning the source domain:
        // the SPSC fast path, when this edge has a ring and no spill
        // epoch is open. Count first — pending_ must cover the event
        // before the consumer can possibly execute it.
        Dom *src = static_cast<Dom *>(tlsDom.dom);
        EdgeRing *r = src != nullptr && d->id < src->outRing.size()
                          ? src->outRing[d->id]
                          : nullptr;
        if (r != nullptr &&
            r->spillIssued.load(std::memory_order_relaxed) ==
                r->spillAck.load(std::memory_order_acquire)) {
            src->sched.inc();
            pending_.fetch_add(1, std::memory_order_acq_rel);
            const VTime stamp = event->time();
            if (r->ring.tryPush(event)) {
                src->fastPushed.inc();
                // Wake the consumer only if the event is executable
                // under the window our *published* horizon already
                // grants it (stamp <= horizon + lookahead). Anything
                // later is gated on our next horizon raise, and every
                // raise wakes the out-neighbors — so the wake is
                // deferred, not lost, and a convoy of pushes costs
                // one wake at the batch settle instead of one each.
                const VTime h = horizons_[src->id].v.load(
                    std::memory_order_relaxed);
                if (kTimeMax - h < r->lookahead ||
                    stamp <= h + r->lookahead)
                    wakeDom(*d);
                return;
            }
            // Ring full: spill to the mailbox and open the epoch; the
            // edge stays on the slow path until the consumer acks.
            enqueueRemote(*d, std::move(event), /*counted=*/true, r);
            return;
        }
        enqueueRemote(*d, std::move(event), /*counted=*/false, r);
        return;
    }
    // External thread (monitor control, setup between runs): route and
    // enqueue under setupMu_ so a drain-boundary repartition cannot
    // slip between reading the routing map and landing the event. The
    // event either lands under the old cut — and the migration
    // re-routes mailbox contents — or waits and routes under the new
    // one. Cold path; monitors schedule rarely.
    std::lock_guard<std::recursive_mutex> lk(setupMu_);
    Dom *d = routeOf(*event);
    enqueueRemote(*d, std::move(event), false);
}

void
DomainEngine::wakeComponent(Component *c)
{
    if (tlsDom.eng != this) {
        // External thread (the monitor's Tick, setup code). Stamped no
        // earlier than the owner's clock so the wake is legal between
        // runs too; setupMu_ keeps the routing map still while read.
        std::lock_guard<std::recursive_mutex> lk(setupMu_);
        VTime t = now();
        if (partitioned_.load(std::memory_order_acquire)) {
            auto it = componentDom_.find(c);
            if (it != componentDom_.end())
                t = std::max(t, doms_[it->second]->clock.load(
                                    std::memory_order_acquire));
        }
        schedule(std::make_unique<WakeEvent>(t, &wakeHandler_, c));
        return;
    }
    // Worker context: the routing map is stable for the run step. A
    // component with no recorded domain is routed to the scheduling
    // worker anyway (routeOf's fallback), so it is ours too.
    auto it = componentDom_.find(c);
    if (it == componentDom_.end() ||
        doms_[it->second].get() == tlsDom.dom) {
        c->wake();
        return;
    }
    schedule(std::make_unique<WakeEvent>(now(), &wakeHandler_, c));
}

void
DomainEngine::WakeHandler::handle(Event &ev)
{
    static_cast<WakeEvent &>(ev).target->wake();
}

void
DomainEngine::enqueueRemote(Dom &d, EventPtr ev, bool counted,
                            EdgeRing *spill)
{
    if (!running_.load(std::memory_order_acquire)) {
        // Engine idle between runs: enforce the serial contract. While
        // running, cross-thread events are floored to the destination's
        // safe horizon at mailbox drain instead (a wake may legally
        // originate from a domain whose clock lags the destination).
        VTime c = d.clock.load(std::memory_order_relaxed);
        if (ev->time() < c)
            throwPast(ev->time(), c);
    }
    {
        std::lock_guard<std::mutex> lk(d.mailMu);
        if (!counted) {
            totalScheduled_.fetch_add(1, std::memory_order_relaxed);
            pending_.fetch_add(1, std::memory_order_acq_rel);
        }
        if (spill != nullptr) {
            // Under mailMu so the consumer's swap-time read of
            // spillIssued can never see the count without the event.
            spill->spillIssued.fetch_add(1, std::memory_order_relaxed);
        }
        if (ev->time() < d.mailMin)
            d.mailMin = ev->time();
        d.mail.push_back(std::move(ev));
        d.mailCount.fetch_add(1, std::memory_order_release);
    }
    mailSlow_.fetch_add(1, std::memory_order_relaxed);
    wakeDom(d);
    bumpProgress();
}

std::size_t
DomainEngine::queueLength() const
{
    auto n = static_cast<std::int64_t>(
        pending_.load(std::memory_order_relaxed));
    if (tlsDom.eng == this && tlsDom.dom != nullptr) {
        // From a handler: pending_ settles once per batch, so it still
        // counts the running event and the ones this batch already ran.
        const auto *d = static_cast<const Dom *>(tlsDom.dom);
        n -= static_cast<std::int64_t>(d->events.value() -
                                       d->batchBase) +
             1;
    }
    return n < 0 ? 0 : static_cast<std::size_t>(n);
}

// ---- Time ----

VTime
DomainEngine::now() const
{
    if (tlsDom.eng == this && tlsDom.dom != nullptr)
        return static_cast<const Dom *>(tlsDom.dom)
            ->clock.load(std::memory_order_relaxed);
    if (!partitioned_.load(std::memory_order_acquire))
        return 0;
    // Global virtual-time floor: the minimum published horizon.
    // Domains that promised "nothing ever" (kTimeMax: idle with no
    // incoming edges) don't drag the estimate; all-idle engines sync
    // clocks at drain, so the fallback is the max clock.
    VTime m = kTimeMax;
    VTime maxClock = 0;
    for (const auto &d : doms_) {
        VTime h = horizons_[d->id].v.load(std::memory_order_acquire);
        if (h != kTimeMax && h < m)
            m = h;
        VTime c = d->clock.load(std::memory_order_relaxed);
        if (c > maxClock)
            maxClock = c;
    }
    return m != kTimeMax ? m : maxClock;
}

// ---- Safe-window machinery ----

VTime
DomainEngine::safeWindow(const Dom &d) const
{
    // Linear pass over the padded horizon array: every in-edge read
    // touches its own cache line, so the scan never bounces a line a
    // producer is writing clock/queue state into.
    VTime b = kTimeMax;
    for (const InEdge &e : d.in) {
        VTime h = horizons_[e.src].v.load(std::memory_order_acquire);
        VTime w = kTimeMax - h < e.lookahead ? kTimeMax
                                             : h + e.lookahead;
        if (w < b)
            b = w;
    }
    return b;
}

void
DomainEngine::drainMail(Dom &d)
{
    bool ringsLoaded = false;
    for (const auto &r : d.inRings) {
        if (!r->ring.empty()) {
            ringsLoaded = true;
            break;
        }
    }
    const bool mailLoaded =
        d.mailCount.load(std::memory_order_acquire) != 0;
    if (!ringsLoaded && !mailLoaded)
        return;

    // Mailbox first, rings second, and within the pass ring events are
    // queued before mail events. Per-edge FIFO across the fast/slow
    // split hangs on this order: a spill epoch only opens after the
    // ring stopped accepting, so whatever the ring still holds for an
    // edge was sent before anything the mailbox holds for it — and the
    // producer stays on the slow path until spillAck (stored below,
    // after the queue pushes) catches up, so no fresh ring traffic can
    // overtake a spilled message either. The mailMu acquire also
    // publishes the producer's earlier ring tail stores to our drain.
    std::vector<EventPtr> &local = d.drainScratch;
    if (mailLoaded) {
        std::lock_guard<std::mutex> lk(d.mailMu);
        local.swap(d.mail);
        d.mailMin = kTimeMax;
        d.mailCount.store(0, std::memory_order_relaxed);
        for (auto &r : d.inRings)
            r->spillSeen =
                r->spillIssued.load(std::memory_order_relaxed);
    }

    const VTime hz = horizons_[d.id].v.load(std::memory_order_relaxed);
    const VTime clk = d.clock.load(std::memory_order_relaxed);
    auto admit = [&](EventPtr ev) {
        if (ev->time() >= hz && ev->time() > clk) {
            // Above the horizon and the last executed cycle: no floor
            // can apply (both branches below only rewrite stamps under
            // max(hz, clk + 1)), so skip the TickingComponent probe —
            // a dynamic_cast per steady-state cross-domain event is
            // measurable.
            d.queue.push(std::move(ev));
            return;
        }
        if (ev->time() < hz && ev->deliveryDst() != nullptr) {
            // A message delivery can only land below the horizon
            // when a cross-domain connection's latency undercuts
            // the partition's lookahead — a partition bug run()
            // should have rejected.
            throw std::runtime_error(
                "cross-domain delivery below the safe horizon "
                "(t=" + std::to_string(ev->time()) +
                ", horizon=" + std::to_string(hz) + ") via '" +
                ev->handler()->handlerName() +
                "': zero-lookahead partition");
        }
        if (auto *tc =
                dynamic_cast<TickingComponent *>(ev->handler())) {
            // A tick an external thread scheduled directly (setup
            // code; cross-domain wakes arrive as wake events): floor
            // it to the horizon, and strictly above the last executed
            // cycle — a tick landing on an already-ticked cycle would
            // be eaten by handle()'s same-cycle duplicate guard and
            // the sleeping component would never retry.
            VTime floor = std::max(hz, clk + 1);
            if (ev->time() < floor) {
                VTime t = floor;
                if (t % tc->freq().period() != 0)
                    t = tc->freq().nextTick(t);
                ev->setTime(t);
            }
        } else if (ev->time() < hz) {
            ev->setTime(hz);
        }
        d.queue.push(std::move(ev));
    };
    try {
        for (auto &r : d.inRings)
            r->ring.drain([&](EventPtr ev) { admit(std::move(ev)); });
        for (EventPtr &ev : local)
            admit(std::move(ev));
    } catch (...) {
        // The scratch must be empty at the next swap — a half-drained
        // pass would otherwise inject its leftovers into the mailbox.
        local.clear();
        throw;
    }
    if (mailLoaded) {
        local.clear();
        // Everything seen at swap time is now in the queue: close the
        // spill epochs so the producers may return to their rings.
        for (auto &r : d.inRings)
            r->spillAck.store(r->spillSeen, std::memory_order_release);
    }
    d.qlen.store(d.queue.size(), std::memory_order_relaxed);
}

void
DomainEngine::publishIdleHorizon(Dom &d, VTime bound)
{
    VTime head = d.queue.empty() ? kTimeMax : d.queue.peekTime();
    bool raised = false;
    {
        // Under mailMu so the published promise can never race past a
        // mailbox stamp an enqueuer is concurrently adding. Ring
        // contents need no scan: this runs right after drainMail, so
        // anything still in a ring was pushed after our safe-window
        // read and is stamped >= that bound >= the promise below
        // (DESIGN.md §15).
        std::lock_guard<std::mutex> lk(d.mailMu);
        VTime hz = std::min(head, bound);
        if (d.mailMin < hz)
            hz = d.mailMin;
        std::atomic<VTime> &slot = horizons_[d.id].v;
        if (hz > slot.load(std::memory_order_relaxed)) {
            slot.store(hz, std::memory_order_release);
            raised = true;
        }
    }
    if (raised)
        wakeNeighbors(d);
}

// ---- Execution ----

void
DomainEngine::noteCost(Dom &d, const Event &ev, std::uint64_t units)
{
    const std::uint32_t id = ev.handler()->profName().id();
    if (id >= d.cost.size()) {
        // First sight of a handler name: size to the interned-name
        // table so later names in this window won't grow it again.
        // Steady state never reaches this branch.
        d.cost.resize(
            std::max<std::size_t>(id + 1, internedNameCount()), 0);
    }
    d.cost[id] += units;
    // Single writer per domain: load+store beats fetch_add.
    d.costTotal.store(d.costTotal.load(std::memory_order_relaxed) + units,
                      std::memory_order_relaxed);
}

void
DomainEngine::executeEvent(Dom &d, Event &event)
{
    invokeHook(hookPosBeforeEvent, &event);
    const bool track = repartition_.load(std::memory_order_relaxed);
    std::uint64_t t0 = 0;
    if (track && costModel_ == CostModel::Time)
        t0 = wallNowNs();
    if (Profiler::instance().enabled()) {
        ProfScope scope(event.handler()->profName());
        event.handler()->handle(event);
    } else {
        event.handler()->handle(event);
    }
    invokeHook(hookPosAfterEvent, &event);
    if (track) {
        const std::uint64_t units =
            costModel_ == CostModel::Time
                ? std::max<std::uint64_t>(1, wallNowNs() - t0)
                : 1;
        noteCost(d, event, units);
    }
    // The shared totalEvents_ counter settles once per batch instead.
    d.events.inc();
}

void
DomainEngine::executeBatch(Dom &d, VTime bound)
{
    std::lock_guard<std::mutex> lk(d.execMu);
    int n = 0;
    int done = 0;
    VTime last = 0;
    d.batchBase = d.events.value();
    // The horizon raise, neighbor wake, and global counters settle
    // once per batch, not once per event. Safety is the §15 ordering
    // argument: every output of the batch was enqueued (ring-tail /
    // mailbox store) before the release store below, so a consumer
    // that acquires the raised horizon and then drains sees them all.
    // Per-event raises are what the serial construction needed; here
    // they just wake each neighbor once per tick.
    auto settle = [&]() {
        if (done == 0)
            return;
        std::atomic<VTime> &hz = horizons_[d.id].v;
        if (hz.load(std::memory_order_relaxed) < last) {
            hz.store(last, std::memory_order_release);
            wakeNeighbors(d);
        }
        d.qlen.store(d.queue.size(), std::memory_order_relaxed);
        totalEvents_.fetch_add(static_cast<std::uint64_t>(done),
                               std::memory_order_relaxed);
        if (pending_.fetch_sub(done, std::memory_order_acq_rel) ==
            done) {
            // Possibly globally drained: wake the drain detectors and
            // every idle-parked worker so they can reach the barrier.
            bumpProgress();
            wakeAllDoms();
        }
    };
    while (n < kBatch && !d.queue.empty()) {
        if (stopRequested_.load(std::memory_order_relaxed) ||
            paused_.load(std::memory_order_relaxed) ||
            exitWorkers_.load(std::memory_order_relaxed))
            break;
        VTime t = d.queue.peekTime();
        if (t > bound)
            break;
        // Advance the local clock before executing — handlers observe
        // it through now(). Only this domain's worker writes it, and
        // remote readers (status, lag) tolerate batch-grained skew.
        if (d.clock.load(std::memory_order_relaxed) != t)
            d.clock.store(t, std::memory_order_release);
        EventPtr ev = d.queue.pop();
        last = t;
        try {
            executeEvent(d, *ev);
        } catch (...) {
            // pending_ survives run() (events may be queued while
            // stopped), so the decrements owed by this batch must not
            // be lost to a throwing handler.
            done++;
            settle();
            throw;
        }
        done++;
        n++;
    }
    settle();
}

// ---- The worker loop ----

void
DomainEngine::bumpProgress()
{
    progressGen_.fetch_add(1);
    if (waiters_.load() > 0) {
        std::lock_guard<std::mutex> lk(waitMu_);
        waitCv_.notify_all();
    }
}

void
DomainEngine::recordError()
{
    {
        std::lock_guard<std::mutex> lk(errMu_);
        if (!error_)
            error_ = std::current_exception();
    }
    exitWorkers_.store(true);
    bumpProgress();
    wakeAllDoms();
    std::lock_guard<std::mutex> lk(waitMu_);
    waitCv_.notify_all();
}

void
DomainEngine::parkWhileDrained()
{
    waiters_.fetch_add(1);
    {
        std::unique_lock<std::mutex> lk(waitMu_);
        if (pending_.load(std::memory_order_relaxed) == 0 &&
            !stopRequested_.load(std::memory_order_relaxed) &&
            !exitWorkers_.load(std::memory_order_relaxed)) {
            parked_++;
            waitCv_.notify_all(); // The coordinator counts us.
            waitCv_.wait(lk, [&]() {
                return pending_.load(std::memory_order_relaxed) != 0 ||
                       stopRequested_.load(std::memory_order_relaxed) ||
                       exitWorkers_.load(std::memory_order_relaxed);
            });
            parked_--;
        }
    }
    waiters_.fetch_sub(1);
}

bool
DomainEngine::coordinateDrain(Dom &)
{
    const int others = static_cast<int>(doms_.size()) - 1;
    bool finished = false;
    bool drained = false;
    waiters_.fetch_add(1);
    {
        std::unique_lock<std::mutex> lk(waitMu_);
        waitCv_.wait(lk, [&]() {
            return parked_ == others ||
                   pending_.load(std::memory_order_relaxed) != 0 ||
                   stopRequested_.load(std::memory_order_relaxed) ||
                   exitWorkers_.load(std::memory_order_relaxed);
        });
        drained = parked_ == others &&
                  pending_.load(std::memory_order_relaxed) == 0 &&
                  !stopRequested_.load(std::memory_order_relaxed) &&
                  !exitWorkers_.load(std::memory_order_relaxed);
    }
    waiters_.fetch_sub(1);
    if (!drained)
        return false;

    // Globally drained: no event exists anywhere, every other worker is
    // parked. Synchronize all clocks to the furthest one — from here on
    // the engine behaves like the serial engine at its final time, so
    // wait-when-empty revival (the monitor's Tick button) is sane.
    VTime maxClock = 0;
    for (const auto &dm : doms_)
        maxClock =
            std::max(maxClock, dm->clock.load(std::memory_order_relaxed));
    for (const auto &dm : doms_) {
        dm->clock.store(maxClock, std::memory_order_release);
        horizons_[dm->id].v.store(maxClock, std::memory_order_release);
    }
    invokeHook(hookPosQueueDrained, nullptr);

    // A wait-when-empty drain is a live rebalancing point: the engine
    // keeps running afterwards with whatever the next revival brings.
    // A final drain leaves rebalancing to the next run()'s entry.
    if (waitWhenEmpty_)
        maybeRepartition(/*midRun=*/true);

    if (!waitWhenEmpty_) {
        drainedResult_ = true;
        exitWorkers_.store(true);
        bumpProgress();
        std::lock_guard<std::mutex> lk(waitMu_);
        waitCv_.notify_all();
        return true;
    }

    drainedWaiting_.store(true);
    notifyState("drained");
    waiters_.fetch_add(1);
    {
        std::unique_lock<std::mutex> lk(waitMu_);
        waitCv_.wait(lk, [&]() {
            return pending_.load(std::memory_order_relaxed) != 0 ||
                   stopRequested_.load(std::memory_order_relaxed) ||
                   exitWorkers_.load(std::memory_order_relaxed);
        });
    }
    waiters_.fetch_sub(1);
    drainedWaiting_.store(false);
    return finished;
}

void
DomainEngine::workerLoop(Dom &d, bool coordinator)
{
    tlsDom = {this, &d};
    while (!exitWorkers_.load(std::memory_order_relaxed) &&
           !stopRequested_.load(std::memory_order_relaxed)) {
        try {
            if (paused_.load(std::memory_order_relaxed)) {
                waiters_.fetch_add(1);
                {
                    std::unique_lock<std::mutex> lk(waitMu_);
                    waitCv_.wait(lk, [&]() {
                        return !paused_.load(
                                   std::memory_order_relaxed) ||
                               stopRequested_.load(
                                   std::memory_order_relaxed) ||
                               exitWorkers_.load(
                                   std::memory_order_relaxed);
                    });
                }
                waiters_.fetch_sub(1);
                continue;
            }
            if (lockWaiters_.load(std::memory_order_acquire) > 0) {
                // Monitor-fairness handoff (cf. SerialEngine): we hold
                // no execMu here, so an announced withLock() can take
                // every domain's mutex without starving.
                std::this_thread::yield();
                continue;
            }
            // Order matters: snapshot the wake generation, read
            // upstream horizons, and only then drain the rings and
            // mailbox — a message enqueued (or a horizon raised) after
            // the snapshot either lands in the drain or re-wakes us
            // via the generation.
            std::uint64_t wgen =
                d.wakeGen.load(std::memory_order_seq_cst);
            VTime bound = safeWindow(d);
            drainMail(d);
            if (!d.queue.empty() && d.queue.peekTime() <= bound) {
                executeBatch(d, bound);
                continue;
            }
            publishIdleHorizon(d, bound);
            if (pending_.load(std::memory_order_acquire) == 0) {
                if (coordinator) {
                    if (coordinateDrain(d))
                        break;
                } else {
                    parkWhileDrained();
                }
                continue;
            }
            idleWait(d, wgen);
        } catch (...) {
            recordError();
            break;
        }
    }
    tlsDom = {};
}

// ---- Adaptive repartitioning ----

bool
DomainEngine::maybeRepartition(bool midRun)
{
    if (!repartition_.load(std::memory_order_relaxed) ||
        doms_.size() < 2)
        return false;

    // Lock order: setupMu_ -> waitMu_ -> topoMu_/mailMu, matching the
    // external schedule path (setupMu_ -> mailMu -> waitMu_ never
    // nests — bumpProgress runs after the mail lock is dropped).
    std::lock_guard<std::recursive_mutex> setupLk(setupMu_);
    std::unique_lock<std::mutex> waitLk;
    if (midRun) {
        waitLk = std::unique_lock<std::mutex>(waitMu_);
        // Re-verify the drain under the lock: an external schedule may
        // have revived the engine since the coordinator observed
        // quiescence. Holding waitMu_ for the whole migration keeps
        // the parked workers parked — deliberately: releasing it would
        // let stop()/resume() wake them into a half-rewritten routing
        // table. The cost is that bumpProgress, stop, resume, and
        // external schedules block on waitMu_ for the O(E log E) recut
        // plus migration; drain boundaries are rare and the monitor's
        // control surface tolerates the pause.
        if (parked_ != static_cast<int>(doms_.size()) - 1 ||
            pending_.load(std::memory_order_relaxed) != 0)
            return false;
    } else {
        // Between runs no worker exists, but only a run that ended in
        // a global drain left a migration-safe state. A Stopped run
        // abandons events in per-domain queues — migration re-routes
        // mailboxes, never queues, so adopting here would execute a
        // moved component's leftovers in its old domain while new
        // events route to the new one — and leaves domain clocks
        // unsynchronized, which the safe-window reset assumes. A
        // mailbox-only backlog is fine: events scheduled between runs
        // migrate with their components.
        const VTime c0 = doms_[0]->clock.load(std::memory_order_relaxed);
        for (const auto &dp : doms_) {
            if (!dp->queue.empty() ||
                dp->clock.load(std::memory_order_relaxed) != c0)
                return false;
        }
    }

    std::uint64_t total = 0;
    std::uint64_t maxCost = 0;
    for (const auto &dp : doms_) {
        std::uint64_t c = dp->costTotal.load(std::memory_order_relaxed);
        total += c;
        maxCost = std::max(maxCost, c);
    }
    if (total < repartMinEvents_)
        return false; // Window too thin to act on; keep accumulating.

    const double mean =
        static_cast<double>(total) / static_cast<double>(doms_.size());
    const double imbalance =
        mean > 0 ? static_cast<double>(maxCost) / mean : 1.0;
    lastImbalance_.store(imbalance, std::memory_order_relaxed);

    bool adopted = false;
    if (cooldownLeft_ > 0) {
        cooldownLeft_--;
    } else if (imbalance >= repartThreshold_) {
        adopted = tryAdoptRepartition();
        if (adopted)
            cooldownLeft_ = repartCooldown_;
        else
            repartRejected_.fetch_add(1, std::memory_order_relaxed);
    }
    // Fresh observation window either way: the trigger reacts to
    // recent load, not the run's whole history.
    for (const auto &dp : doms_) {
        std::fill(dp->cost.begin(), dp->cost.end(), 0);
        dp->costTotal.store(0, std::memory_order_relaxed);
    }
    return adopted;
}

bool
DomainEngine::tryAdoptRepartition()
{
    // Observed weight per component: its handler's interned-name cost,
    // summed over every domain's table (ownership may have changed
    // inside the window).
    const std::size_t n = components_.size();
    std::vector<std::uint64_t> weights(n, 0);
    for (std::size_t i = 0; i < n; i++) {
        auto hIt = componentHandler_.find(components_[i]);
        if (hIt == componentHandler_.end())
            continue; // Handles no events, costs nothing.
        const std::uint32_t id = hIt->second->profName().id();
        for (const auto &dp : doms_)
            if (id < dp->cost.size())
                weights[i] += dp->cost[id];
    }

    DomainPartition cand =
        partitionDomains(components_, connections_,
                         static_cast<int>(doms_.size()), pins_, weights);
    // Same handler-pin domain expansion as the initial partition.
    int numDoms = std::max(cand.numDomains, 1);
    for (const auto &kv : handlerPins_)
        numDoms = std::max(numDoms, kv.second + 1);
    cand.numDomains = numDoms;
    cand.members.resize(static_cast<std::size_t>(numDoms));
    cand.incoming.resize(static_cast<std::size_t>(numDoms));
    if (cand.numDomains != static_cast<int>(doms_.size()))
        return false; // Worker binding is fixed for the engine's life.
    for (const auto &e : cand.edges)
        if (e.lookahead == 0)
            return false; // No safe window across that cut.

    // Hysteresis on like-for-like numbers: predicted imbalance of the
    // current vs. the candidate assignment under the same weights. A
    // candidate has to beat the standing cut by a real margin, so an
    // oscillating hotspot cannot flip the partition every boundary.
    auto imbalanceOf = [this](const std::vector<std::uint64_t> &w) {
        std::uint64_t tot = 0, mx = 0;
        for (std::uint64_t v : w) {
            tot += v;
            mx = std::max(mx, v);
        }
        if (tot == 0)
            return 1.0;
        return static_cast<double>(mx) * static_cast<double>(w.size()) /
               static_cast<double>(tot);
    };
    std::vector<std::uint64_t> curW(doms_.size(), 0);
    std::vector<std::uint64_t> candW(doms_.size(), 0);
    int moved = 0;
    for (std::size_t i = 0; i < n; i++) {
        auto cur = componentDom_.find(components_[i]);
        auto to = cand.domainOf.find(components_[i]);
        if (cur == componentDom_.end() || to == cand.domainOf.end())
            continue;
        curW[cur->second] += weights[i];
        candW[static_cast<std::size_t>(to->second)] += weights[i];
        if (cur->second != static_cast<std::size_t>(to->second))
            moved++;
    }
    const double before = imbalanceOf(curW);
    const double after = imbalanceOf(candW);
    if (moved == 0 || after * kRepartHysteresis >= before)
        return false;

    // Migration. Every mailbox lock is taken so events parked there
    // (scheduled between runs) move with their components; workers are
    // parked behind waitMu_ (held by the caller) or not yet spawned,
    // so queues and routing maps are exclusively ours.
    std::vector<std::unique_lock<std::mutex>> mailLks;
    mailLks.reserve(doms_.size());
    for (const auto &dp : doms_)
        mailLks.emplace_back(dp->mailMu);

    // Ring residue (pushed but never drained — e.g. a stopped run)
    // joins the mailbox under the same locks, so the re-route below
    // migrates it with everything else. The rings themselves are
    // rebuilt for the new edge set once the in-lists are final.
    flushRingsToMail();

    {
        std::lock_guard<std::mutex> tk(topoMu_);
        part_ = std::move(cand);

        // Update componentDom_ in place: it also carries late
        // registrations (noteComponent after the partition was fixed)
        // that components_ does not list — clearing would orphan them
        // and leave their deliveries to the tlsDom fallback, i.e. to
        // whichever worker happens to schedule. handlerDom_ and
        // componentHandler_ only ever hold components_ members plus
        // handlerPins_, so a full rebuild reproduces them exactly.
        handlerDom_.clear();
        componentHandler_.clear();
        for (Component *c : components_) {
            auto it = part_.domainOf.find(c);
            std::size_t dom = it != part_.domainOf.end()
                                  ? static_cast<std::size_t>(it->second)
                                  : 0;
            componentDom_[c] = dom;
            if (auto *h = dynamic_cast<EventHandler *>(c)) {
                handlerDom_.emplace(h, dom);
                componentHandler_.emplace(c, h);
            }
        }
        for (const auto &kv : handlerPins_)
            handlerDom_[kv.first] = static_cast<std::size_t>(kv.second);

        memberNames_.assign(doms_.size(), {});
        for (int i = 0; i < part_.numDomains; i++) {
            for (Component *c : part_.members[i])
                memberNames_[static_cast<std::size_t>(i)].push_back(
                    c->name());
        }
        edgeConnNames_.clear();
        for (const auto &e : part_.edges)
            edgeConnNames_.push_back(e.via ? e.via->connectionName()
                                           : std::string("?"));

        // Safe-window recomputation: each worker's next bound scan
        // reads the rebuilt in-edge lists. Clocks and horizons are
        // already synchronized by the drain, so the first windows
        // after revival are maxClock + lookahead — conservative and
        // monotone.
        for (auto &dp : doms_) {
            dp->in.clear();
            for (const auto &e :
                 part_.incoming[static_cast<std::size_t>(dp->id)])
                dp->in.push_back(
                    {static_cast<std::size_t>(e.src), e.lookahead});
        }
        // Fresh rings for the new cut: the flush above emptied the old
        // ones, and fresh EdgeRings reset every spill epoch to closed.
        buildRings();

        RepartitionEvent evh;
        evh.seq = repartitions_.load(std::memory_order_relaxed) + 1;
        evh.simTime = doms_[0]->clock.load(std::memory_order_relaxed);
        evh.imbalanceBefore = before;
        evh.imbalanceAfter = after;
        evh.migrated = moved;
        repartHistory_.push_back(evh);
        if (repartHistory_.size() > kRepartHistoryCap)
            repartHistory_.pop_front();
    }

    // Re-route mailbox contents to their new owners. Cross-domain
    // FIFO is preserved trivially: queues are empty at a drain, and a
    // mailbox is unordered until its owner drains it into the queue.
    std::vector<EventPtr> movedMail;
    for (const auto &dp : doms_) {
        Dom &d = *dp;
        std::vector<EventPtr> keep;
        keep.reserve(d.mail.size());
        for (EventPtr &ev : d.mail) {
            Dom *t = lookupDom(*ev);
            if (t == nullptr || t == &d)
                keep.push_back(std::move(ev));
            else
                movedMail.push_back(std::move(ev));
        }
        d.mail.swap(keep);
    }
    for (EventPtr &ev : movedMail) {
        Dom *t = lookupDom(*ev); // Non-null: the split proved it.
        t->mail.push_back(std::move(ev));
    }
    for (const auto &dp : doms_) {
        Dom &d = *dp;
        d.mailMin = kTimeMax;
        for (const EventPtr &ev : d.mail)
            d.mailMin = std::min(d.mailMin, ev->time());
        d.mailCount.store(d.mail.size(), std::memory_order_release);
    }

    repartitions_.fetch_add(1, std::memory_order_relaxed);
    migrated_.fetch_add(static_cast<std::uint64_t>(moved),
                        std::memory_order_relaxed);
    return true;
}

std::vector<std::vector<std::string>>
DomainEngine::domainMemberNames()
{
    partition();
    std::lock_guard<std::mutex> lk(topoMu_);
    return memberNames_;
}

std::vector<std::string>
DomainEngine::edgeConnectionNames()
{
    partition();
    std::lock_guard<std::mutex> lk(topoMu_);
    return edgeConnNames_;
}

std::vector<DomainEngine::EdgeInfo>
DomainEngine::edgeInfos()
{
    partition();
    std::lock_guard<std::mutex> lk(topoMu_);
    std::vector<EdgeInfo> out;
    out.reserve(part_.edges.size());
    for (std::size_t i = 0; i < part_.edges.size(); i++)
        out.push_back({part_.edges[i].src, part_.edges[i].dst,
                       part_.edges[i].lookahead, edgeConnNames_[i]});
    return out;
}

int
DomainEngine::domainOfComponent(const Component *c) const
{
    std::lock_guard<std::recursive_mutex> lk(setupMu_);
    auto it = componentDom_.find(c);
    return it == componentDom_.end() ? -1
                                     : static_cast<int>(it->second);
}

std::vector<DomainEngine::RepartitionEvent>
DomainEngine::repartitionEvents() const
{
    std::lock_guard<std::mutex> lk(topoMu_);
    return {repartHistory_.begin(), repartHistory_.end()};
}

// ---- Control surface ----

void
DomainEngine::stop()
{
    stopRequested_.store(true);
    bumpProgress();
    wakeAllDoms();
    {
        std::lock_guard<std::mutex> lk(waitMu_);
        waitCv_.notify_all();
    }
    notifyState("stop");
}

void
DomainEngine::pause()
{
    paused_.store(true);
    bumpProgress();
    notifyState("pause");
}

void
DomainEngine::resume()
{
    paused_.store(false);
    bumpProgress();
    {
        std::lock_guard<std::mutex> lk(waitMu_);
        waitCv_.notify_all();
    }
    notifyState("resume");
}

void
DomainEngine::withLock(const std::function<void()> &fn) const
{
    if (tlsDom.eng == this) {
        // A handler is already at a consistent point of its own domain;
        // taking the domain locks from here would deadlock on our own.
        fn();
        return;
    }
    if (!partitioned_.load(std::memory_order_acquire)) {
        // Pre-partition (setup phase). Hold setupMu_ so a concurrent
        // first run() cannot flip the partition and start executing
        // events mid-fn — the flip happens under setupMu_ before any
        // worker exists. Re-check: if the partition landed while we
        // waited for the lock, fall through to the domain locks.
        std::unique_lock<std::recursive_mutex> lk(setupMu_);
        if (!partitioned_.load(std::memory_order_relaxed)) {
            fn();
            return;
        }
    }
    lockWaiters_.fetch_add(1, std::memory_order_acq_rel);
    {
        // All domain locks in id order: a causally-consistent cut at
        // event boundaries across the whole simulation.
        std::vector<std::unique_lock<std::mutex>> locks;
        locks.reserve(doms_.size());
        for (const auto &d : doms_)
            locks.emplace_back(d->execMu);
        fn();
    }
    lockWaiters_.fetch_sub(1, std::memory_order_acq_rel);
}

DomainEngine::DomainStatus
DomainEngine::domainStatus(int d) const
{
    DomainStatus s;
    if (d < 0 || static_cast<std::size_t>(d) >= doms_.size())
        return s;
    const Dom &dm = *doms_[d];
    s.clock = dm.clock.load(std::memory_order_relaxed);
    s.horizon = horizons_[dm.id].v.load(std::memory_order_relaxed);
    s.events = dm.events.value();
    std::size_t inFlight = 0;
    std::size_t cap = 0;
    {
        // A repartition rebuilds inRings under topoMu_; occupancy is a
        // monitor-thread read, so pay the (uncontended) lock here.
        std::lock_guard<std::mutex> lk(topoMu_);
        for (const auto &r : dm.inRings) {
            inFlight += r->ring.size();
            cap += r->ring.capacity();
        }
    }
    s.ringOccupancy = inFlight;
    s.ringCapacity = cap;
    s.queueLen = dm.qlen.load(std::memory_order_relaxed) +
                 dm.mailCount.load(std::memory_order_relaxed) +
                 inFlight;
    s.cost = dm.costTotal.load(std::memory_order_relaxed);
    return s;
}

RunResult
DomainEngine::run()
{
    ensurePartitioned();
    // Between runs every clock is synchronized and no worker exists —
    // a free rebalancing point. Events scheduled since the last run
    // sit in mailboxes and migrate with their components.
    maybeRepartition(/*midRun=*/false);
    for (std::size_t i = 0; i < part_.edges.size(); i++) {
        if (part_.edges[i].lookahead != 0)
            continue;
        throw std::runtime_error(
            "domain partition has zero lookahead on edge " +
            std::to_string(part_.edges[i].src) + " -> " +
            std::to_string(part_.edges[i].dst) + " via connection '" +
            edgeConnNames_[i] +
            "': a cut connection needs latency > 0 (unpin components "
            "or lower the domain count)");
    }

    stopRequested_.store(false);
    exitWorkers_.store(false);
    drainedResult_ = false;
    {
        std::lock_guard<std::mutex> lk(errMu_);
        error_ = nullptr;
    }
    running_.store(true);
    notifyState("run_start");

    threads_.clear();
    threads_.reserve(doms_.size() > 0 ? doms_.size() - 1 : 0);
    for (std::size_t i = 1; i < doms_.size(); i++) {
        threads_.emplace_back(
            [this, i]() { workerLoop(*doms_[i], false); });
    }
    workerLoop(*doms_[0], true);

    // The coordinator is done (stop, drain, or error): release everyone.
    exitWorkers_.store(true);
    bumpProgress();
    wakeAllDoms();
    {
        std::lock_guard<std::mutex> lk(waitMu_);
        waitCv_.notify_all();
    }
    for (std::thread &t : threads_)
        t.join();
    threads_.clear();

    running_.store(false);
    notifyState("run_end");

    {
        std::lock_guard<std::mutex> lk(errMu_);
        if (error_) {
            std::exception_ptr err = error_;
            error_ = nullptr;
            std::rethrow_exception(err);
        }
    }
    if (stopRequested_.load(std::memory_order_relaxed))
        return RunResult::Stopped;
    return RunResult::Drained;
}

} // namespace sim
} // namespace akita
