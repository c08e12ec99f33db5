/**
 * @file
 * Conservative parallel-discrete-event engine over latency domains.
 */

#ifndef AKITA_SIM_DOMAIN_ENGINE_HH
#define AKITA_SIM_DOMAIN_ENGINE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "metrics/instrument.hh"
#include "sim/domain.hh"
#include "sim/engine.hh"
#include "sim/spsc.hh"

namespace akita
{
namespace sim
{

/**
 * Conservative PDES engine: the component graph is partitioned into
 * domains (see domain.hh), each with its own event queue, clock, and
 * worker thread. A domain advances freely inside its *safe window* —
 * the minimum over incoming cross-domain edges of the source domain's
 * published horizon plus the edge's lookahead (its minimum connection
 * latency) — and synchronizes with other domains only when a message
 * actually crosses a boundary. There is no per-tick barrier: with long
 * inter-domain latencies, domains run thousands of events ahead of each
 * other (Chandy-Misra-Bryant, shared-memory style).
 *
 * Safety argument, in terms of the two per-domain times:
 *
 *  - clock: the time of the domain's last executed event. Handlers
 *    observe it as now().
 *  - horizon: a published promise — "this domain will emit no
 *    cross-domain message stamped below horizon + edge latency". While
 *    executing events at time h, horizon == clock == h and outputs are
 *    stamped >= h + connection latency. While idle or blocked, the
 *    worker raises horizon to min(queue head, own safe window, earliest
 *    mailbox stamp): no earlier output can exist, because any event it
 *    could still receive is itself bounded by the safe window. Horizons
 *    are monotone, so a reader's stale value is merely conservative.
 *
 *  - A worker computes its safe window (acquire-reads of upstream
 *    horizons) *before* draining its mailbox; senders enqueue to the
 *    mailbox *before* raising their horizon (release). A message can
 *    therefore never slip under an already-computed window.
 *
 * Cross-domain delivery is two-tier (DESIGN.md §15). The steady-state
 * fast path is a bounded SPSC ring per directed partition edge: the
 * source domain's worker pushes (release on the ring tail), the
 * destination's worker drains whole segments per safe-window
 * recomputation, and the enqueue-before-horizon-raise ordering above
 * carries over because the tail store is program-ordered before the
 * producer's next horizon release. The locked mailbox remains as the
 * slow path for external threads, edges without a ring, full-ring
 * spills (per-edge FIFO is preserved across the spill by an epoch
 * handshake — see EdgeRing), and repartition migration. Idle workers
 * spin briefly and then park on a per-domain channel; a horizon raise
 * wakes only the domains whose safe window actually moved.
 *
 * Every component belongs to one domain's worker (the single-owner
 * invariant, DESIGN.md §8). A wake from another thread (backpressure
 * release waking a sender across the cut, the monitor's Tick) is
 * posted to the owner as a wake event through wakeComponent(); it is
 * stamped with the waker's clock and may land below the destination's
 * horizon, so it is floored up to it at mailbox drain — physically,
 * backpressure release travels with the wire latency of the connection
 * it crosses.
 * Cross-domain *message deliveries* can never need flooring (their
 * stamp carries the connection latency); one arriving below the horizon
 * means a zero-lookahead cut and throws. run() rejects partitions with
 * zero-lookahead cross edges up front, naming the offending connection.
 *
 * Monitor contract: pause/resume/stop work as on the other engines;
 * withLock() acquires every domain's execution mutex in domain order,
 * yielding a causally-consistent cut at event boundaries; now() from an
 * external thread is the minimum published horizon (the global
 * virtual-time floor, monotone); a globally drained engine synchronizes
 * all clocks to the maximum before reporting "drained", so wait-when-
 * empty revival behaves exactly like the serial engine.
 *
 * With a single domain, the worker is the run() caller and pops events
 * one at a time from one queue: event order is bit-identical to
 * SerialEngine (enforced by test).
 *
 * Adaptive repartitioning (off by default — see setRepartition):
 * while enabled, every executed event charges one cost unit (or its
 * measured wall time, CostModel::Time) to its handler's interned
 * NameRef in a worker-owned per-domain table. At global drain
 * boundaries — the only points where all clocks are synchronized,
 * every queue is empty, and the other workers are parked — the
 * coordinator compares the per-domain window cost (max/mean) against
 * a threshold and, past it, re-runs the partitioner seeded with the
 * observed per-component costs instead of static latencies. The new
 * cut is adopted only when its predicted imbalance beats the current
 * one by the hysteresis factor (and a cooldown of evaluations has
 * elapsed), so oscillating load cannot thrash. Adoption rewrites the
 * routing maps and every domain's in-edge list (safe windows are
 * recomputed from them on the next worker iteration) and re-routes
 * any events sitting in mailboxes between runs; pinned components and
 * assigned handlers never move, and a candidate that would change the
 * domain count or cut a zero-latency connection is rejected. The
 * simulation end-state is unchanged by construction — only the
 * schedule moves — and with the feature off the engine is
 * byte-for-byte the PR 7 behavior.
 */
class DomainEngine : public Engine
{
  public:
    /** @param domains Target domain count; 0 = hardware concurrency. */
    explicit DomainEngine(int domains = 0);
    ~DomainEngine() override;

    void schedule(EventPtr event) override;
    VTime now() const override;
    RunResult run() override;
    void stop() override;

    std::uint64_t
    eventCount() const override
    {
        return totalEvents_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    scheduledCount() const override
    {
        std::uint64_t n =
            totalScheduled_.load(std::memory_order_relaxed);
        if (partitioned_.load(std::memory_order_acquire))
            for (const auto &d : doms_)
                n += d->sched.value();
        return n;
    }

    void setConcurrentAccess(bool on) override { concurrent_ = on; }

    bool concurrentAccess() const override { return concurrent_; }

    void setWaitWhenEmpty(bool on) override { waitWhenEmpty_ = on; }

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

    /**
     * Inline when the caller is the worker of @p c's domain; otherwise
     * posts a wake event that the owning worker runs (floored to its
     * horizon at mailbox drain, like any cross-domain event).
     */
    void wakeComponent(Component *c) override;

    void noteComponent(Component *c) override;
    void noteComponentDestroyed(Component *c) override;
    void noteConnection(Connection *c) override;
    void noteConnectionDestroyed(Connection *c) override;

    // ---- Partition surface ----

    /** Target domain count this engine was configured with. */
    int requestedDomains() const { return requested_; }

    /**
     * Pins @p c to domain @p d, overriding the partitioner (tests,
     * tuning experiments). Must be called before the partition is
     * computed; pins win over the mandatory zero-latency merge, and
     * run() then rejects the resulting zero-lookahead cut by name.
     */
    void pinComponent(Component *c, int d);

    /**
     * Routes events addressed to @p h — a handler that is not a
     * component, e.g. a bench workload — to domain @p d. Must be called
     * before the partition is computed.
     */
    void assignHandler(EventHandler *h, int d);

    /**
     * Computes the partition if not yet computed (idempotent,
     * thread-safe). Every component/connection must be registered by
     * the first call; the platform guarantees this by construction.
     */
    const DomainPartition &partition();

    /**
     * Domains in the computed partition (computes it on first use).
     * The count is fixed for the engine's lifetime: repartitioning
     * reassigns members but never changes the worker-per-domain
     * binding.
     */
    int numDomains() { return static_cast<int>(partition().numDomains); }

    /**
     * Component names per domain. A snapshot by value: repartitioning
     * rewrites the membership at drain boundaries, so references into
     * the live table would race.
     */
    std::vector<std::vector<std::string>> domainMemberNames();

    /** One cross-domain edge of the current cut, with diagnostics. */
    struct EdgeInfo
    {
        int src = 0;
        int dst = 0;
        VTime lookahead = 0;
        std::string connection;
    };

    /** The current cut's edges, snapshotted (see domainMemberNames). */
    std::vector<EdgeInfo> edgeInfos();

    /** Connection name per partition edge (same order as edges). */
    std::vector<std::string> edgeConnectionNames();

    /**
     * Current domain of @p c, or -1 when unknown. Tracks
     * repartitioning (tests assert pinned components never move).
     */
    int domainOfComponent(const Component *c) const;

    /** Thread-safe per-domain counters for metrics/RTM. */
    struct DomainStatus
    {
        VTime clock = 0;
        VTime horizon = 0;
        std::uint64_t events = 0;
        std::size_t queueLen = 0;
        /** Cost units charged in the current observation window. */
        std::uint64_t cost = 0;
        /** Events sitting in this domain's in-rings (approximate). */
        std::size_t ringOccupancy = 0;
        /** Summed capacity of this domain's in-rings. */
        std::size_t ringCapacity = 0;
    };

    /** @p d must be < numDomains(). */
    DomainStatus domainStatus(int d) const;

    // ---- Adaptive repartitioning surface ----

    /** What one cost unit means when weighing components. */
    enum class CostModel
    {
        /** One unit per executed event (cheap, deterministic). */
        Events,
        /** Measured wall nanoseconds per event (two clock reads). */
        Time,
    };

    /**
     * Enables cost accounting and drain-boundary repartitioning.
     * Off (the default) leaves the hot path and the partition exactly
     * as PR 7 shipped them; a 1-domain engine never repartitions.
     */
    void setRepartition(bool on)
    {
        repartition_.store(on, std::memory_order_relaxed);
    }

    bool
    repartitionEnabled() const
    {
        return repartition_.load(std::memory_order_relaxed);
    }

    void setCostModel(CostModel m) { costModel_ = m; }

    /** Trigger: repartition when window max/mean >= @p maxOverMean. */
    void
    setRepartitionThreshold(double maxOverMean)
    {
        repartThreshold_ = maxOverMean < 1.0 ? 1.0 : maxOverMean;
    }

    /** Evaluations to skip after an adopted repartition. */
    void
    setRepartitionCooldown(int evals)
    {
        repartCooldown_ = evals < 0 ? 0 : evals;
    }

    /** Minimum window cost before the trigger is even evaluated. */
    void
    setRepartitionMinEvents(std::uint64_t n)
    {
        repartMinEvents_ = n;
    }

    /** Adopted repartitions so far. */
    std::uint64_t
    repartitionCount() const
    {
        return repartitions_.load(std::memory_order_relaxed);
    }

    /** Trigger firings that were rejected (hysteresis/validity). */
    std::uint64_t
    repartitionRejected() const
    {
        return repartRejected_.load(std::memory_order_relaxed);
    }

    /** Components moved across domains, cumulative. */
    std::uint64_t
    migratedComponents() const
    {
        return migrated_.load(std::memory_order_relaxed);
    }

    /** Most recent evaluated window imbalance (max/mean; 0 = none). */
    double
    lastImbalance() const
    {
        return lastImbalance_.load(std::memory_order_relaxed);
    }

    /** One adopted repartition, for the RTM event history. */
    struct RepartitionEvent
    {
        std::uint64_t seq = 0;
        /** Synchronized virtual time of the drain boundary. */
        VTime simTime = 0;
        /** Window imbalance that fired the trigger. */
        double imbalanceBefore = 0;
        /** Predicted imbalance of the adopted cut (same weights). */
        double imbalanceAfter = 0;
        int migrated = 0;
    };

    /** Bounded history (newest last) of adopted repartitions. */
    std::vector<RepartitionEvent> repartitionEvents() const;

    /**
     * Per-edge fast-path ring capacity (rounded up to a power of two).
     * Must be set before the partition is computed; a full ring spills
     * to the slow mailbox, so small rings only cost throughput, never
     * correctness. A 1-slot ring forces the spill path
     * (DomainEngineCross.EndStateMatchesSerialEngine).
     */
    void setRingCapacity(int n);

    /** Cross-domain events delivered through the SPSC fast path. */
    std::uint64_t
    mailboxFastTotal() const
    {
        std::uint64_t n = 0;
        if (partitioned_.load(std::memory_order_acquire))
            for (const auto &d : doms_)
                n += d->fastPushed.value();
        return n;
    }

    /**
     * Cross-domain events that took the locked slow path: external
     * threads, edges without a ring, and full-ring spills.
     */
    std::uint64_t
    mailboxSlowTotal() const
    {
        return mailSlow_.load(std::memory_order_relaxed);
    }

  private:
    static constexpr VTime kTimeMax = ~static_cast<VTime>(0);
    /** Events executed per safe-window batch (cf. SerialEngine). */
    static constexpr int kBatch = 256;
    /**
     * Adopt a repartition candidate only when its predicted imbalance
     * times this factor is still below the current one (anti-thrash
     * margin).
     */
    static constexpr double kRepartHysteresis = 1.2;

    struct InEdge
    {
        std::size_t src = 0;
        VTime lookahead = 0;
    };

    /**
     * One domain's published horizon, isolated on its own cache line
     * in a flat array (horizons_). The safe-window min-scan is the
     * hottest cross-domain read; keeping it a linear pass over padded
     * atomics means it never bounces lines the owning worker is
     * concurrently writing (clock, qlen, cost).
     */
    struct alignas(64) HorizonSlot
    {
        std::atomic<VTime> v{0};
    };

    /**
     * Fast-path state of one directed cross-domain edge: the SPSC
     * ring (producer = the source domain's worker, consumer = the
     * destination's) plus the spill-epoch counters that keep per-edge
     * FIFO exact across the ring/mailbox boundary. A full ring spills
     * to the slow mailbox; from then on the producer stays on the
     * slow path (spillIssued ahead of spillAck) until the consumer
     * has pushed every spilled event into its queue and acknowledged
     * — so ring traffic and mailbox traffic for one edge never
     * interleave, and same-timestamp FIFO survives the overflow.
     */
    struct EdgeRing
    {
        EdgeRing(std::size_t src_, VTime lookahead_, std::size_t cap)
            : src(src_), lookahead(lookahead_), ring(cap)
        {
        }

        std::size_t src;
        /** The edge's lookahead, for the producer's wake filter. */
        VTime lookahead;
        SpscRing<EventPtr> ring;
        /** Spills issued by the producer (written under mailMu). */
        std::atomic<std::uint64_t> spillIssued{0};
        /** Spills the consumer has drained into its queue. */
        std::atomic<std::uint64_t> spillAck{0};
        /** Consumer scratch: spillIssued as read at the last swap. */
        std::uint64_t spillSeen = 0;
    };

    /** One domain's runtime state, grouped by writer to keep the
     * producer-facing wake line and the slow-mailbox lock off the
     * worker's own hot line. */
    struct alignas(64) Dom
    {
        std::size_t id = 0;
        /** Worker-owned between barriers; never touched externally. */
        EventQueue queue;
        /** Time of the last executed event (handlers' now()). */
        std::atomic<VTime> clock{0};
        /** Events executed by this worker (single-writer). */
        metrics::Counter events;
        /** `events` when the running batch began (worker-only). */
        std::uint64_t batchBase = 0;
        /** Events scheduled by this worker (single-writer, instead of
         * a locked RMW on a shared engine counter). */
        metrics::Counter sched;
        /** Ring pushes issued by this worker (single-writer). */
        metrics::Counter fastPushed;
        /** queue.size() mirror for external readers. */
        std::atomic<std::size_t> qlen{0};
        /** Incoming cross-domain edges (the safe-window scan). */
        std::vector<InEdge> in;
        /** In-rings, one per in-edge (same order as `in`). */
        std::vector<std::unique_ptr<EdgeRing>> inRings;
        /** Out-rings indexed by destination domain; null = no edge. */
        std::vector<EdgeRing *> outRing;
        /** Domains whose safe window reads our horizon (targets of
         * the horizon-raise wake). */
        std::vector<std::size_t> outNbr;
        /** Consumer scratch for mailbox swaps (steady-state no-alloc). */
        std::vector<EventPtr> drainScratch;

        /** Spin-then-park wake channel, written by producers: a
         * horizon raise or enqueue bumps the generation and notifies
         * only when the owning worker is actually parked. */
        alignas(64) std::atomic<std::uint64_t> wakeGen{0};
        std::atomic<bool> parkedFlag{false};
        std::mutex parkMu;
        std::condition_variable parkCv;

        /** Guards mail/mailMin/spillIssued; leaf lock (slow path). */
        alignas(64) std::mutex mailMu;
        std::vector<EventPtr> mail;
        /** Earliest stamp in mail (kTimeMax when empty). */
        VTime mailMin = kTimeMax;
        std::atomic<std::size_t> mailCount{0};
        /** Held while executing a batch; withLock takes all in order. */
        mutable std::mutex execMu;
        /**
         * Cost units per interned handler name this window. Worker-
         * owned; the coordinator reads/resets it at drain boundaries
         * while the worker is parked (ordered through waitMu_). It
         * grows once per newly seen name — the steady state never
         * allocates.
         */
        std::vector<std::uint64_t> cost;
        /** Window total (mirror for external status readers). */
        std::atomic<std::uint64_t> costTotal{0};
    };

    /** Runs posted wake events (see wakeComponent). */
    struct WakeHandler : EventHandler
    {
        void handle(Event &ev) override;
        NameRef profName() const override { return name; }
        NameRef name{"DomainEngine::wake"};
    };

    Dom *routeOf(const Event &ev);
    Dom *lookupDom(const Event &ev) const;
    void enqueueRemote(Dom &d, EventPtr ev, bool countScheduled,
                       EdgeRing *spill = nullptr);
    void drainMail(Dom &d);
    /** (Re)creates the per-edge rings from the current in-edge lists.
     * Caller guarantees quiescence and empty rings. */
    void buildRings();
    /** Moves residual ring events into the slow mailboxes (prepended,
     * preserving per-edge order). Caller holds every mailMu and
     * guarantees no worker runs (repartition adoption, where the old
     * rings are about to be torn down). */
    void flushRingsToMail();
    /** Bumps @p d's wake generation; notifies only if parked. */
    void wakeDom(Dom &d);
    /** Wakes the domains whose safe window reads @p d's horizon. */
    void wakeNeighbors(Dom &d);
    void wakeAllDoms();
    /** Spin-then-park until the wake generation moves past @p wgen
     * or a global signal (stop/pause/exit/drain) fires. */
    void idleWait(Dom &d, std::uint64_t wgen);
    void noteCost(Dom &d, const Event &ev, std::uint64_t units);
    /**
     * Evaluates the imbalance trigger and possibly adopts a new cut.
     * Caller guarantees quiescence: run() entry (no workers), or the
     * drain coordinator (re-verified under waitMu_ when @p midRun).
     * Returns true when a repartition was adopted.
     */
    bool maybeRepartition(bool midRun);
    /** The locked adoption step; see maybeRepartition. */
    bool tryAdoptRepartition();
    VTime safeWindow(const Dom &d) const;
    void publishIdleHorizon(Dom &d, VTime bound);
    void executeBatch(Dom &d, VTime bound);
    void executeEvent(Dom &d, Event &ev);
    void workerLoop(Dom &d, bool coordinator);
    /** Coordinator-side drained handling; true = leave the run loop. */
    bool coordinateDrain(Dom &d);
    void parkWhileDrained();
    void recordError();
    void bumpProgress();
    void ensurePartitioned();

    int requested_;
    WakeHandler wakeHandler_;

    // Registration (guarded by setupMu_ until partitioned). Recursive
    // so a pre-partition withLock() body can schedule(); the partition
    // flip happens under this lock before any event executes, which is
    // what makes the pre-partition withLock fast path sound.
    mutable std::recursive_mutex setupMu_;
    std::vector<Component *> components_;
    std::vector<Connection *> connections_;
    std::unordered_map<const Component *, int> pins_;
    std::unordered_map<const EventHandler *, int> handlerPins_;
    /** Events scheduled before the partition existed. */
    std::vector<EventPtr> setup_;
    std::atomic<bool> partitioned_{false};

    DomainPartition part_;
    std::vector<std::unique_ptr<Dom>> doms_;
    /** Published horizons, one padded slot per domain (see
     * HorizonSlot). Allocated once at partition time; the domain
     * count never changes afterwards. */
    std::unique_ptr<HorizonSlot[]> horizons_;
    /** Per-edge ring capacity (power of two; see setRingCapacity). */
    int ringCapacity_ = 256;
    /** Cross-domain events through the locked slow path. */
    std::atomic<std::uint64_t> mailSlow_{0};
    std::unordered_map<const Component *, std::size_t> componentDom_;
    std::unordered_map<const EventHandler *, std::size_t> handlerDom_;
    /**
     * Partition epoch tag for Port::routeHint_ memoization; assigned
     * a process-unique value by buildRings() at every (re)cut.
     */
    std::uint32_t routeEpoch_ = 0;
    /** Component -> its EventHandler subobject (for dtor cleanup). */
    std::unordered_map<const Component *, const EventHandler *>
        componentHandler_;
    std::vector<std::vector<std::string>> memberNames_;
    std::vector<std::string> edgeConnNames_;

    // ---- Adaptive repartitioning state ----

    /** Cost tracking + drain-boundary rebalancing enabled. */
    std::atomic<bool> repartition_{false};
    CostModel costModel_ = CostModel::Events;
    double repartThreshold_ = 1.5;
    int repartCooldown_ = 2;
    std::uint64_t repartMinEvents_ = 1024;
    /** Evaluations left to skip (coordinator/drain-boundary only). */
    int cooldownLeft_ = 0;
    std::atomic<std::uint64_t> repartitions_{0};
    std::atomic<std::uint64_t> repartRejected_{0};
    std::atomic<std::uint64_t> migrated_{0};
    std::atomic<double> lastImbalance_{0.0};
    /**
     * Guards the topology snapshot read by RTM (memberNames_,
     * edgeConnNames_, part_.edges, repartHistory_) against the
     * drain-boundary rewrite. Leaf lock.
     */
    mutable std::mutex topoMu_;
    std::deque<RepartitionEvent> repartHistory_;

    std::atomic<std::uint64_t> pending_{0};
    std::atomic<std::uint64_t> totalEvents_{0};
    std::atomic<std::uint64_t> totalScheduled_{0};

    bool concurrent_ = false;
    bool waitWhenEmpty_ = false;
    std::atomic<bool> paused_{false};
    std::atomic<bool> running_{false};
    std::atomic<bool> stopRequested_{false};
    std::atomic<bool> drainedWaiting_{false};
    /** Internal per-run exit signal (drained / error). */
    std::atomic<bool> exitWorkers_{false};
    mutable std::atomic<int> lockWaiters_{0};

    /**
     * The cold-path monitor: pause, drained-parking, and blocked
     * workers all wait here; any progress (horizon raise, mailbox
     * enqueue, pending reaching zero, state change) bumps the
     * generation and notifies. The hot path only touches atomics.
     */
    mutable std::mutex waitMu_;
    mutable std::condition_variable waitCv_;
    std::atomic<std::uint64_t> progressGen_{0};
    mutable std::atomic<int> waiters_{0};
    /** Workers parked on global drain (under waitMu_). */
    int parked_ = 0;

    std::vector<std::thread> threads_;
    std::mutex errMu_;
    std::exception_ptr error_;
    bool drainedResult_ = false;
};

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_DOMAIN_ENGINE_HH
