#include "rtm/monitor.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "gpu/cu.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/l2cache.hh"
#include "mem/rdma.hh"
#include "rtm/api.hh"
#include "rtm/serialize.hh"
#include "sim/component.hh"
#include "sim/connection.hh"
#include "sim/domain_engine.hh"
#include "sim/pool.hh"

namespace akita
{
namespace rtm
{

namespace
{

std::int64_t
nowWallMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

} // namespace

Monitor::Monitor(const MonitorConfig &cfg)
    : cfg_(cfg), values_(metrics_)
{
    analyzer_ = std::make_unique<BufferAnalyzer>(&registry_);
    throughput_ = std::make_unique<ThroughputTracker>(&registry_);
    if (!cfg_.recordPath.empty()) {
        recorder::FlightRecorder::Options opts;
        opts.path = cfg_.recordPath;
        opts.segmentBytes = cfg_.recordSegmentBytes;
        std::string err;
        recorder_ = recorder::FlightRecorder::create(opts, &err);
        if (recorder_ == nullptr) {
            // Recording is an observability aid; a bad path must not
            // take the simulation down with it.
            std::fprintf(stderr,
                         "AkitaRTM: flight recorder disabled: %s\n",
                         err.c_str());
        } else {
            recorder_->recordEvent("monitor_start", nowWallMs(), 0);
        }
    }
    metrics_.setReplayCapacity(kSseReplayPasses);
    metrics::Desc d;
    d.name = "akita_http_requests_total";
    d.help = "Dashboard HTTP requests served.";
    d.type = metrics::Type::Counter;
    metrics_.addCallback(std::move(d), [this]() {
        return static_cast<double>(requestsServed());
    });

    // Serving-path cache effectiveness (one family, labeled by event
    // kind so /metrics shows the full hit/miss/coalesce/304 breakdown
    // the TTL-floor and ETag machinery produces).
    struct CacheStat
    {
        const char *kind;
        std::function<double()> fn;
    };
    const CacheStat stats[] = {
        {"hit", [this]() { return double(respCache_.hitCount()); }},
        {"miss", [this]() { return double(respCache_.missCount()); }},
        {"coalesced",
         [this]() { return double(respCache_.coalesceCount()); }},
        {"not_modified",
         [this]() { return double(respCache_.notModifiedCount()); }},
        {"encode", [this]() { return double(respCache_.encodeCount()); }},
    };
    for (const CacheStat &s : stats) {
        metrics::Desc cd;
        cd.name = "akita_rtm_response_cache_events_total";
        cd.help = "Response-cache serving events by kind.";
        cd.type = metrics::Type::Counter;
        cd.labels = {{"kind", s.kind}};
        metrics_.addCallback(std::move(cd), s.fn);
    }
}

Monitor::~Monitor()
{
    stopServer();
    if (samplerRunning_.exchange(false)) {
        samplerCv_.notify_all();
        if (sampler_.joinable())
            sampler_.join();
    }
    if (engine_ != nullptr)
        engine_->setStateObserver(nullptr);
    if (recorder_ != nullptr) {
        recorder_->recordEvent(
            "monitor_stop", nowWallMs(),
            engine_ != nullptr ? engine_->now() : 0);
        recorder_->sync(/*durable=*/true);
    }
}

void
Monitor::registerEngine(sim::Engine *engine)
{
    engine_ = engine;
    engine_->setConcurrentAccess(true);
    engine_->setWaitWhenEmpty(true);
    hangWatch_ = std::make_unique<HangWatch>(engine_,
                                             cfg_.hangThresholdSec);
    if (recorder_ != nullptr) {
        // Lifecycle transitions only — never per event — so the tee
        // costs the PR 5 allocation-free event loop nothing.
        recorder::FlightRecorder *rec = recorder_.get();
        sim::Engine *e = engine_;
        engine_->setStateObserver([rec, e](const char *kind) {
            rec->recordEvent(kind, nowWallMs(), e->now());
        });
    }
    // The engine itself is inspectable but is not a Component; its
    // fields are exposed through the status endpoint instead.
    instrumentEngine();
    ensureSampler();
}

void
Monitor::registerComponent(sim::Component *component)
{
    registry_.add(component);
    instrumentComponent(component);
}

void
Monitor::instrumentEngine()
{
    sim::Engine *e = engine_;
    {
        metrics::Desc d;
        d.name = "akita_engine_virtual_time_seconds";
        d.help = "Simulated (virtual) time.";
        d.type = metrics::Type::Gauge;
        d.series = metrics::SeriesMode::Full;
        metrics_.addCallback(std::move(d), [e]() {
            return sim::toSeconds(e->now());
        });
    }
    {
        metrics::Desc d;
        d.name = "akita_engine_events_total";
        d.help = "Events executed by the engine.";
        d.type = metrics::Type::Counter;
        d.series = metrics::SeriesMode::Full;
        metrics_.addCallback(std::move(d), [e]() {
            return static_cast<double>(e->eventCount());
        });
    }
    {
        metrics::Desc d;
        d.name = "akita_engine_scheduled_total";
        d.help = "Events ever scheduled.";
        d.type = metrics::Type::Counter;
        metrics_.addCallback(std::move(d), [e]() {
            return static_cast<double>(e->scheduledCount());
        });
    }
    {
        metrics::Desc d;
        d.name = "akita_engine_queue_length";
        d.help = "Events currently queued.";
        d.type = metrics::Type::Gauge;
        d.series = metrics::SeriesMode::Full;
        // queueLength() takes the engine lock's announced handoff.
        metrics_.addCallback(std::move(d), [e]() {
            return static_cast<double>(e->queueLength());
        });
    }
    {
        metrics::Desc d;
        d.name = "akita_engine_paused";
        d.help = "1 while the simulation is paused.";
        d.type = metrics::Type::Gauge;
        metrics_.addCallback(std::move(d), [e]() {
            return e->paused() ? 1.0 : 0.0;
        });
    }

    // Hang watchdog exposure (task T3 over /metrics): an alerting
    // stack can page on akita_rtm_hang_suspected without polling the
    // JSON API. check() takes only the watch's own mutex.
    {
        metrics::Desc d;
        d.name = "akita_rtm_hang_suspected";
        d.help = "1 while the hang signature holds (time frozen).";
        d.type = metrics::Type::Gauge;
        d.series = metrics::SeriesMode::Full;
        HangWatch *hw = hangWatch_.get();
        metrics_.addCallback(std::move(d), [hw]() {
            return hw->check().hanging ? 1.0 : 0.0;
        });
    }
    {
        metrics::Desc d;
        d.name = "akita_rtm_hang_frozen_seconds";
        d.help = "Wall seconds since virtual time last advanced.";
        d.type = metrics::Type::Gauge;
        HangWatch *hw = hangWatch_.get();
        metrics_.addCallback(std::move(d), [hw]() {
            return hw->check().frozenForSec;
        });
    }
    {
        metrics::Desc d;
        d.name = "akita_rtm_hang_cycle_len";
        d.help = "Nodes in the last analyzed wait-for cycle "
                 "(0 = none found).";
        d.type = metrics::Type::Gauge;
        metrics_.addCallback(std::move(d), [this]() {
            return static_cast<double>(
                lastCycleLen_.load(std::memory_order_relaxed));
        });
    }
    if (recorder_ != nullptr) {
        metrics::Desc d;
        d.name = "akita_rtm_recorder_records_total";
        d.help = "Records appended to the flight-recorder segment.";
        d.type = metrics::Type::Counter;
        recorder::FlightRecorder *rec = recorder_.get();
        metrics_.addCallback(std::move(d), [rec]() {
            return static_cast<double>(rec->generation());
        });
    }

    // Slab-pool counters (events and messages are pool-allocated; see
    // DESIGN.md §10). Owner-thread counters are relaxed atomics, so the
    // sampler reads them without perturbing the hot path.
    {
        metrics::Desc d;
        d.name = "akita_sim_pool_allocs_total";
        d.help = "Blocks served by the per-thread slab pools.";
        d.type = metrics::Type::Counter;
        metrics_.addCallback(std::move(d), []() {
            return static_cast<double>(sim::poolStats().allocs);
        });
    }
    {
        metrics::Desc d;
        d.name = "akita_sim_pool_frees_total";
        d.help = "Blocks returned by their owning thread.";
        d.type = metrics::Type::Counter;
        metrics_.addCallback(std::move(d), []() {
            return static_cast<double>(sim::poolStats().frees);
        });
    }
    {
        metrics::Desc d;
        d.name = "akita_sim_pool_remote_frees_total";
        d.help = "Blocks returned through the cross-thread stack.";
        d.type = metrics::Type::Counter;
        metrics_.addCallback(std::move(d), []() {
            return static_cast<double>(sim::poolStats().remoteFrees);
        });
    }
    {
        metrics::Desc d;
        d.name = "akita_sim_pool_oversize_allocs_total";
        d.help = "Requests too large for any size class.";
        d.type = metrics::Type::Counter;
        metrics_.addCallback(std::move(d), []() {
            return static_cast<double>(sim::poolStats().oversizeAllocs);
        });
    }
    {
        metrics::Desc d;
        d.name = "akita_sim_pool_slab_bytes";
        d.help = "Slab memory reserved across all pools.";
        d.type = metrics::Type::Gauge;
        metrics_.addCallback(std::move(d), []() {
            return static_cast<double>(sim::poolStats().slabBytes);
        });
    }
    {
        metrics::Desc d;
        d.name = "akita_sim_pool_live_blocks";
        d.help = "Pool blocks currently live.";
        d.type = metrics::Type::Gauge;
        d.series = metrics::SeriesMode::Full;
        metrics_.addCallback(std::move(d), []() {
            return static_cast<double>(sim::poolStats().liveBlocks);
        });
    }

    // Domain-engine health: one labeled series per domain. Lag (how far
    // a domain trails the furthest clock) is the load-balance signal —
    // a permanently lagging domain is the partition's critical path.
    if (auto *de = dynamic_cast<sim::DomainEngine *>(engine_)) {
        const int n = de->numDomains();
        for (int i = 0; i < n; i++) {
            metrics::Labels labels = {{"domain", std::to_string(i)}};
            metrics::Desc d;
            d.name = "akita_sim_domain_clock_ps";
            d.help = "Local virtual clock of the domain.";
            d.type = metrics::Type::Gauge;
            d.labels = labels;
            metrics_.addCallback(std::move(d), [de, i]() {
                return static_cast<double>(de->domainStatus(i).clock);
            });
            d = metrics::Desc{};
            d.name = "akita_sim_domain_lag_ps";
            d.help = "Distance behind the furthest domain clock.";
            d.type = metrics::Type::Gauge;
            d.labels = labels;
            d.series = metrics::SeriesMode::Full;
            metrics_.addCallback(std::move(d), [de, n, i]() {
                sim::VTime maxClock = 0;
                for (int j = 0; j < n; j++)
                    maxClock = std::max(maxClock,
                                        de->domainStatus(j).clock);
                return static_cast<double>(maxClock -
                                           de->domainStatus(i).clock);
            });
            d = metrics::Desc{};
            d.name = "akita_sim_domain_events_total";
            d.help = "Events executed by the domain's worker.";
            d.type = metrics::Type::Counter;
            d.labels = labels;
            metrics_.addCallback(std::move(d), [de, i]() {
                return static_cast<double>(de->domainStatus(i).events);
            });
            d = metrics::Desc{};
            d.name = "akita_sim_domain_queue_length";
            d.help = "Events queued for the domain (incl. mailbox).";
            d.type = metrics::Type::Gauge;
            d.labels = labels;
            metrics_.addCallback(std::move(d), [de, i]() {
                return static_cast<double>(de->domainStatus(i).queueLen);
            });
            d = metrics::Desc{};
            d.name = "akita_sim_domain_cost";
            d.help = "Observed cost units charged to the domain in "
                     "the current repartition window.";
            d.type = metrics::Type::Gauge;
            d.labels = labels;
            metrics_.addCallback(std::move(d), [de, i]() {
                return static_cast<double>(de->domainStatus(i).cost);
            });
            d = metrics::Desc{};
            d.name = "akita_sim_domain_ring_occupancy";
            d.help = "Events parked in the domain's incoming SPSC "
                     "mailbox rings (fast cross-domain path).";
            d.type = metrics::Type::Gauge;
            d.labels = labels;
            metrics_.addCallback(std::move(d), [de, i]() {
                return static_cast<double>(
                    de->domainStatus(i).ringOccupancy);
            });
        }

        // Fast/slow mailbox split: a growing slow share means the
        // rings are overflowing (or traffic comes from external
        // threads) and cross-domain hops are paying the mutex price.
        {
            metrics::Desc d;
            d.name = "akita_sim_domain_mailbox_fast_total";
            d.help = "Cross-domain events delivered via the lock-free "
                     "SPSC ring fast path.";
            d.type = metrics::Type::Counter;
            metrics_.addCallback(std::move(d), [de]() {
                return static_cast<double>(de->mailboxFastTotal());
            });
            d = metrics::Desc{};
            d.name = "akita_sim_domain_mailbox_slow_total";
            d.help = "Cross-domain events delivered via the locked "
                     "mailbox slow path (overflow, external threads, "
                     "spill epochs).";
            d.type = metrics::Type::Counter;
            metrics_.addCallback(std::move(d), [de]() {
                return static_cast<double>(de->mailboxSlowTotal());
            });
        }

        // Adaptive-repartitioning health: how skewed the observed
        // load is and how often the engine acted on it.
        metrics::Desc d;
        d.name = "akita_sim_domain_imbalance_ratio";
        d.help = "Last evaluated window cost imbalance (max/mean) "
                 "across domains.";
        d.type = metrics::Type::Gauge;
        d.series = metrics::SeriesMode::Full;
        metrics_.addCallback(std::move(d),
                             [de]() { return de->lastImbalance(); });
        d = metrics::Desc{};
        d.name = "akita_sim_repartitions_total";
        d.help = "Adopted drain-boundary repartitions.";
        d.type = metrics::Type::Counter;
        metrics_.addCallback(std::move(d), [de]() {
            return static_cast<double>(de->repartitionCount());
        });
        d = metrics::Desc{};
        d.name = "akita_sim_repartitions_rejected_total";
        d.help = "Repartition trigger firings rejected by hysteresis "
                 "or candidate validity.";
        d.type = metrics::Type::Counter;
        metrics_.addCallback(std::move(d), [de]() {
            return static_cast<double>(de->repartitionRejected());
        });
        d = metrics::Desc{};
        d.name = "akita_sim_repartition_migrations_total";
        d.help = "Components moved across domains, cumulative.";
        d.type = metrics::Type::Counter;
        metrics_.addCallback(std::move(d), [de]() {
            return static_cast<double>(de->migratedComponents());
        });
    }
}

void
Monitor::instrumentComponent(sim::Component *component)
{
    const std::string &cname = component->name();

    for (const auto &portPtr : component->ports()) {
        sim::Port *p = portPtr.get();
        metrics::Labels labels = {{"port", p->fullName()}};
        metrics::Desc d;
        d.name = "akita_port_sent_total";
        d.help = "Messages sent from the port.";
        d.type = metrics::Type::Counter;
        d.labels = labels;
        metrics_.addCallback(std::move(d), [p]() {
            return static_cast<double>(p->totalSent());
        });
        d = metrics::Desc{};
        d.name = "akita_port_received_total";
        d.help = "Messages delivered into the port.";
        d.type = metrics::Type::Counter;
        d.labels = labels;
        metrics_.addCallback(std::move(d), [p]() {
            return static_cast<double>(p->totalReceived());
        });
        d = metrics::Desc{};
        d.name = "akita_port_send_rejections_total";
        d.help = "Sends rejected with Busy (backpressure).";
        d.type = metrics::Type::Counter;
        d.labels = labels;
        metrics_.addCallback(std::move(d), [p]() {
            return static_cast<double>(p->totalSendRejections());
        });
        d = metrics::Desc{};
        d.name = "akita_port_sent_bytes_total";
        d.help = "Bytes sent from the port.";
        d.type = metrics::Type::Counter;
        d.labels = labels;
        metrics_.addCallback(std::move(d), [p]() {
            return static_cast<double>(p->totalSentBytes());
        });
    }

    for (sim::Buffer *b : component->buffers()) {
        metrics::Labels labels = {{"buffer", b->name()}};
        metrics::Desc d;
        d.name = "akita_buffer_occupancy";
        d.help = "Messages currently buffered (approximate).";
        d.type = metrics::Type::Gauge;
        d.labels = labels;
        metrics_.addCallback(std::move(d), [b]() {
            return static_cast<double>(b->approxSize());
        });
        d = metrics::Desc{};
        d.name = "akita_buffer_pushed_total";
        d.help = "Messages ever pushed into the buffer.";
        d.type = metrics::Type::Counter;
        d.labels = labels;
        metrics_.addCallback(std::move(d), [b]() {
            return static_cast<double>(b->totalPushed());
        });
    }

    metrics::Labels comp = {{"component", cname}};

    if (auto *c = dynamic_cast<mem::Cache *>(component)) {
        metrics::Desc d;
        d.name = "akita_cache_hits_total";
        d.help = "Cache directory hits.";
        d.type = metrics::Type::Counter;
        d.labels = comp;
        metrics_.addCallback(std::move(d), [c]() {
            return static_cast<double>(c->directory().hits());
        });
        d = metrics::Desc{};
        d.name = "akita_cache_misses_total";
        d.help = "Cache directory misses.";
        d.type = metrics::Type::Counter;
        d.labels = comp;
        metrics_.addCallback(std::move(d), [c]() {
            return static_cast<double>(c->directory().misses());
        });
        d = metrics::Desc{};
        d.name = "akita_cache_transactions";
        d.help = "Outstanding downstream transactions (MSHR bound).";
        d.type = metrics::Type::Gauge;
        d.labels = comp;
        d.series = metrics::SeriesMode::Full;
        d.needsLock = true; // Reads container sizes.
        metrics_.addCallback(std::move(d), [c]() {
            return static_cast<double>(c->transactionCount());
        });
    } else if (auto *l2 = dynamic_cast<mem::L2Cache *>(component)) {
        metrics::Desc d;
        d.name = "akita_cache_hits_total";
        d.help = "Cache directory hits.";
        d.type = metrics::Type::Counter;
        d.labels = comp;
        metrics_.addCallback(std::move(d), [l2]() {
            return static_cast<double>(l2->directory().hits());
        });
        d = metrics::Desc{};
        d.name = "akita_cache_misses_total";
        d.help = "Cache directory misses.";
        d.type = metrics::Type::Counter;
        d.labels = comp;
        metrics_.addCallback(std::move(d), [l2]() {
            return static_cast<double>(l2->directory().misses());
        });
        d = metrics::Desc{};
        d.name = "akita_cache_transactions";
        d.help = "Outstanding downstream transactions (MSHR bound).";
        d.type = metrics::Type::Gauge;
        d.labels = comp;
        d.series = metrics::SeriesMode::Full;
        d.needsLock = true;
        metrics_.addCallback(std::move(d), [l2]() {
            return static_cast<double>(l2->transactionCount());
        });
    } else if (auto *dram = dynamic_cast<mem::DramController *>(
                   component)) {
        metrics::Desc d;
        d.name = "akita_dram_reads_total";
        d.help = "DRAM read requests completed.";
        d.type = metrics::Type::Counter;
        d.labels = comp;
        metrics_.addCallback(std::move(d), [dram]() {
            return static_cast<double>(dram->totalReads());
        });
        d = metrics::Desc{};
        d.name = "akita_dram_writes_total";
        d.help = "DRAM write requests completed.";
        d.type = metrics::Type::Counter;
        d.labels = comp;
        metrics_.addCallback(std::move(d), [dram]() {
            return static_cast<double>(dram->totalWrites());
        });
        d = metrics::Desc{};
        d.name = "akita_dram_transactions";
        d.help = "Requests in the DRAM service queue.";
        d.type = metrics::Type::Gauge;
        d.labels = comp;
        d.series = metrics::SeriesMode::Full;
        d.needsLock = true;
        metrics_.addCallback(std::move(d), [dram]() {
            return static_cast<double>(dram->transactionCount());
        });
    } else if (auto *rdma = dynamic_cast<mem::RdmaEngine *>(component)) {
        metrics::Desc d;
        d.name = "akita_rdma_forwarded_out_total";
        d.help = "Requests forwarded to remote chiplets.";
        d.type = metrics::Type::Counter;
        d.labels = comp;
        metrics_.addCallback(std::move(d), [rdma]() {
            return static_cast<double>(rdma->totalForwardedOut());
        });
        d = metrics::Desc{};
        d.name = "akita_rdma_forwarded_in_total";
        d.help = "Remote requests serviced locally.";
        d.type = metrics::Type::Counter;
        d.labels = comp;
        metrics_.addCallback(std::move(d), [rdma]() {
            return static_cast<double>(rdma->totalForwardedIn());
        });
        d = metrics::Desc{};
        d.name = "akita_rdma_transactions";
        d.help = "In-flight RDMA transactions (case study 1 signal).";
        d.type = metrics::Type::Gauge;
        d.labels = comp;
        d.series = metrics::SeriesMode::Full;
        d.needsLock = true;
        metrics_.addCallback(std::move(d), [rdma]() {
            return static_cast<double>(rdma->transactionCount());
        });
    } else if (auto *cu = dynamic_cast<gpu::ComputeUnit *>(component)) {
        metrics::Desc d;
        d.name = "akita_cu_completed_wgs_total";
        d.help = "Work-groups completed by the compute unit.";
        d.type = metrics::Type::Counter;
        d.labels = comp;
        d.series = metrics::SeriesMode::Full;
        metrics_.addCallback(std::move(d), [cu]() {
            return static_cast<double>(cu->completedWGs());
        });
        d = metrics::Desc{};
        d.name = "akita_cu_mem_reqs_total";
        d.help = "Memory requests issued toward the L1 pipeline.";
        d.type = metrics::Type::Counter;
        d.labels = comp;
        metrics_.addCallback(std::move(d), [cu]() {
            return static_cast<double>(cu->memReqsIssued());
        });
        d = metrics::Desc{};
        d.name = "akita_cu_resident_wavefronts";
        d.help = "Wavefronts currently resident.";
        d.type = metrics::Type::Gauge;
        d.labels = comp;
        d.needsLock = true;
        metrics_.addCallback(std::move(d), [cu]() {
            return static_cast<double>(cu->residentWavefronts());
        });
    }
}

void
Monitor::withEngineLock(const std::function<void()> &fn) const
{
    if (engine_ != nullptr)
        engine_->withLock(fn);
    else
        fn();
}

void
Monitor::pause()
{
    if (engine_ != nullptr)
        engine_->pause();
}

void
Monitor::resume()
{
    if (engine_ != nullptr)
        engine_->resume();
}

void
Monitor::kickStart()
{
    resume();
}

bool
Monitor::paused() const
{
    return engine_ != nullptr && engine_->paused();
}

bool
Monitor::tickComponent(const std::string &name)
{
    sim::Component *c = registry_.find(name);
    if (c == nullptr)
        return false;
    withEngineLock([c]() { c->engine()->wakeComponent(c); });
    return true;
}

json::Json
Monitor::componentTree() const
{
    std::string body;
    json::Writer w(body);
    writeTree(w, registry_.buildTree());
    return json::Json::parse(body);
}

std::vector<BufferLevel>
Monitor::bufferLevels(BufferSort sort, std::size_t top_n) const
{
    std::vector<BufferLevel> out;
    withEngineLock([&]() { out = analyzer_->snapshot(sort, top_n); });
    return out;
}

json::Json
Monitor::status()
{
    json::Json obj = json::Json::object();
    if (engine_ == nullptr)
        return obj;
    obj.set("now_ps", engine_->now());
    obj.set("now", sim::formatTime(engine_->now()));
    obj.set("events", engine_->eventCount());
    obj.set("queue_len", static_cast<std::int64_t>(
                             engine_->queueLength()));
    obj.set("paused", engine_->paused());
    obj.set("running", engine_->running());
    obj.set("drained_waiting", engine_->drainedWaiting());

    HangStatus hang = hangWatch_->check();
    json::Json hj = json::Json::object();
    hj.set("hanging", hang.hanging);
    hj.set("frozen_for_sec", hang.frozenForSec);
    hj.set("queue_drained", hang.queueDrained);
    obj.set("hang", std::move(hj));
    return obj;
}

HangReport
Monitor::hangReport()
{
    HangStatus st =
        hangWatch_ != nullptr ? hangWatch_->check() : HangStatus{};
    HangReport rep;
    rep.status = st;
    if (!st.hanging) {
        lastCycleLen_.store(0, std::memory_order_relaxed);
        // A resolved hang re-arms the one-report-per-episode latch.
        hangRecorded_.store(false, std::memory_order_relaxed);
        return rep;
    }

    HangAnalyzer analyzer(&registry_, &connections_);
    // The graph walk reads buffer occupancies and blocked-sender
    // tables; take the engine lock so the snapshot is consistent. A
    // hung engine is drained or frozen, so the hold is uncontended.
    withEngineLock([&]() { rep = analyzer.analyze(st); });
    lastCycleLen_.store(rep.cycle.size(), std::memory_order_relaxed);

    if (recorder_ != nullptr &&
        !hangRecorded_.exchange(true, std::memory_order_acq_rel)) {
        std::string body;
        writeHangReport(body, rep);
        recorder_->recordHangReport(body, nowWallMs(), st.simTime);
    }
    return rep;
}

std::vector<PortThroughput>
Monitor::portThroughput(const std::string &component_name,
                        const std::string &client)
{
    // Port counters are relaxed atomics now, so throughput queries no
    // longer borrow the engine lock at all — a monitoring client
    // polling rates costs the simulation thread nothing.
    return throughput_->sample(
        component_name, engine_ != nullptr ? engine_->now() : 0,
        client);
}

json::Json
Monitor::topology() const
{
    json::Json arr = json::Json::array();
    for (sim::Connection *conn : connections_) {
        json::Json cj = json::Json::object();
        cj.set("connection", conn->connectionName());
        json::Json ports = json::Json::array();
        for (sim::Port *p : conn->attachedPorts())
            ports.push(p->fullName());
        cj.set("ports", std::move(ports));
        arr.push(std::move(cj));
    }
    return arr;
}

std::string
Monitor::exportSeriesCsv(std::uint64_t id) const
{
    TrackedSeries s = values_.series(id);
    if (s.id == 0)
        return "";
    std::string csv = "t_ps," + s.componentName + "." + s.fieldName +
                      "\n";
    for (const auto &sample : s.samples) {
        csv += std::to_string(sample.simTime) + "," +
               std::to_string(sample.value) + "\n";
    }
    return csv;
}

std::uint64_t
Monitor::trackValue(const std::string &component_name,
                    const std::string &field_name)
{
    sim::Component *c = registry_.find(component_name);
    if (c == nullptr)
        return 0;

    introspect::FieldGetter getter;
    if (const introspect::Field *f = c->fields().find(field_name)) {
        getter = f->getter;
    } else {
        // Buffer metric: "<buffer name>.size" relative to the component,
        // e.g. "TopPort.Buf.size".
        for (sim::Buffer *b : c->buffers()) {
            std::string rel = b->name();
            // Strip the "<component>." prefix.
            if (rel.rfind(component_name + ".", 0) == 0)
                rel = rel.substr(component_name.size() + 1);
            if (field_name == rel + ".size" || field_name == rel) {
                getter = [b]() {
                    return introspect::Value::ofInt(
                        static_cast<std::int64_t>(b->size()));
                };
                break;
            }
        }
    }
    if (!getter)
        return 0;

    std::uint64_t id =
        values_.track(component_name, field_name, std::move(getter));
    if (id != 0)
        ensureSampler();
    return id;
}

void
Monitor::sampleNow()
{
    std::int64_t wallMs = nowWallMs();
    withEngineLock([&]() {
        values_.sampleAll(engine_ != nullptr ? engine_->now() : 0,
                          wallMs);
    });
}

void
Monitor::metricsSamplePass()
{
    std::int64_t wallMs = nowWallMs();
    std::uint64_t simPs = engine_ != nullptr ? engine_->now() : 0;
    auto withLock = [this](const std::function<void()> &fn) {
        withEngineLock(fn);
    };
    if (recorder_ == nullptr) {
        metrics_.samplePass(wallMs, simPs, withLock);
        return;
    }
    // Tee the pass into the flight recorder through a reused scratch
    // vector (the sampler normally owns this path; the mutex only
    // matters for harnesses driving metricsSamplePass directly).
    std::lock_guard<std::mutex> lk(teeMu_);
    metrics_.samplePass(wallMs, simPs, withLock, &sampledScratch_);
    recorder_->recordMetricsPass(wallMs, simPs, sampledScratch_);
}

void
Monitor::ensureSampler()
{
    // autoSample=false means *no* automatic passes, ever — enforced
    // here rather than at the call sites so a future caller can't
    // accidentally spawn a sampler that fires its first-wake metrics
    // pass against a manual-sampling harness's version counting.
    if (!cfg_.autoSample)
        return;
    if (samplerRunning_.exchange(true))
        return;
    sampler_ = std::thread([this]() { samplerLoop(); });
}

void
Monitor::samplerLoop()
{
    auto lastMetricsPass = std::chrono::steady_clock::now() -
                           std::chrono::hours(1);
    std::unique_lock<std::mutex> lk(samplerMu_);
    while (samplerRunning_.load()) {
        samplerCv_.wait_for(
            lk, std::chrono::milliseconds(cfg_.sampleIntervalMs));
        if (!samplerRunning_.load())
            break;
        if (values_.numTracked() != 0)
            sampleNow();
        // Metrics passes run on their own (slower) cadence: a pass
        // visits every instrument, the value monitor only a handful.
        auto now = std::chrono::steady_clock::now();
        if (now - lastMetricsPass >=
            std::chrono::milliseconds(cfg_.metricsIntervalMs)) {
            lastMetricsPass = now;
            metricsSamplePass();
        }
    }
}

bool
Monitor::startServer()
{
    if (server_ != nullptr && server_->running())
        return true;
    web::ServerOptions opts;
    opts.workers = cfg_.httpWorkers;
    opts.maxConnections = cfg_.httpMaxConnections;
    opts.listenBacklog = cfg_.httpBacklog;
    server_ = std::make_unique<web::HttpServer>(opts);
    installApiRoutes(*server_, *this);
    if (!server_->start(cfg_.port))
        return false;
    serverRaw_.store(server_.get(), std::memory_order_release);
    if (cfg_.announceUrl) {
        std::printf("AkitaRTM dashboard: %s\n", server_->url().c_str());
        std::fflush(stdout);
    }
    return true;
}

void
Monitor::stopServer()
{
    // Wake any SSE handlers blocked on the next sampling pass so the
    // server's worker threads can observe the shutdown promptly.
    metrics_.notifyWaiters();
    if (server_ != nullptr)
        server_->stop();
}

void
Monitor::kernelStarted(std::uint64_t seq, const std::string &name,
                       std::uint64_t total)
{
    std::uint64_t id = bars_.create("kernel " + name, total);
    std::lock_guard<std::mutex> lk(kernelBarsMu_);
    kernelBars_[seq] = id;
}

void
Monitor::kernelProgress(std::uint64_t seq, std::uint64_t completed,
                        std::uint64_t ongoing)
{
    std::uint64_t id = 0;
    {
        std::lock_guard<std::mutex> lk(kernelBarsMu_);
        auto it = kernelBars_.find(seq);
        if (it == kernelBars_.end())
            return;
        id = it->second;
    }
    bars_.update(id, completed, ongoing);
}

void
Monitor::kernelFinished(std::uint64_t seq)
{
    std::uint64_t id = 0;
    {
        std::lock_guard<std::mutex> lk(kernelBarsMu_);
        auto it = kernelBars_.find(seq);
        if (it == kernelBars_.end())
            return;
        id = it->second;
    }
    // Keep the bar visible, fully green, rather than destroying it; a
    // finished kernel's bar showing 100% is the "it completed" signal.
    std::vector<ProgressBar> bars = bars_.snapshot();
    for (const auto &b : bars) {
        if (b.id == id)
            bars_.update(id, b.total, 0);
    }
}

} // namespace rtm
} // namespace akita
