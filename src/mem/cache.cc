#include "mem/cache.hh"

namespace akita
{
namespace mem
{

Directory::Directory(std::size_t num_sets, std::size_t ways,
                     std::uint64_t line_size)
    : numSets_(num_sets == 0 ? 1 : num_sets), ways_(ways == 0 ? 1 : ways),
      lineSize_(line_size == 0 ? 64 : line_size),
      sets_(numSets_, std::vector<Way>(ways_))
{
}

std::size_t
Directory::setOf(std::uint64_t addr) const
{
    return static_cast<std::size_t>((addr / lineSize_) % numSets_);
}

std::uint64_t
Directory::tagOf(std::uint64_t addr) const
{
    return addr / lineSize_ / numSets_;
}

Directory::Way *
Directory::findWay(std::uint64_t addr)
{
    auto &set = sets_[setOf(addr)];
    std::uint64_t tag = tagOf(addr);
    for (auto &w : set) {
        if (w.valid && w.tag == tag)
            return &w;
    }
    return nullptr;
}

bool
Directory::probe(std::uint64_t addr) const
{
    const auto &set = sets_[setOf(addr)];
    std::uint64_t tag = tagOf(addr);
    for (const auto &w : set) {
        if (w.valid && w.tag == tag)
            return true;
    }
    return false;
}

bool
Directory::lookup(std::uint64_t addr)
{
    Way *w = findWay(addr);
    if (w == nullptr) {
        misses_.inc();
        return false;
    }
    w->lastUse = ++useClock_;
    hits_.inc();
    return true;
}

bool
Directory::install(std::uint64_t addr, bool dirty, bool &evicted_dirty,
                   std::uint64_t &victim_addr)
{
    evicted_dirty = false;
    victim_addr = 0;

    Way *w = findWay(addr);
    if (w != nullptr) {
        w->dirty = w->dirty || dirty;
        w->lastUse = ++useClock_;
        return false;
    }

    auto &set = sets_[setOf(addr)];
    Way *victim = &set[0];
    for (auto &cand : set) {
        if (!cand.valid) {
            victim = &cand;
            break;
        }
        if (cand.lastUse < victim->lastUse)
            victim = &cand;
    }

    bool evicted = victim->valid;
    if (evicted) {
        evicted_dirty = victim->dirty;
        victim_addr =
            (victim->tag * numSets_ + setOf(addr)) * lineSize_;
    }
    victim->tag = tagOf(addr);
    victim->valid = true;
    victim->dirty = dirty;
    victim->lastUse = ++useClock_;
    return evicted;
}

bool
Directory::peekVictim(std::uint64_t addr, bool &dirty,
                      std::uint64_t &victim_addr) const
{
    dirty = false;
    victim_addr = 0;
    std::size_t set_idx = setOf(addr);
    const auto &set = sets_[set_idx];
    std::uint64_t tag = tagOf(addr);

    const Way *victim = &set[0];
    for (const auto &w : set) {
        if (w.valid && w.tag == tag)
            return false; // Already present: install evicts nothing.
        if (!w.valid) {
            victim = &w;
            break;
        }
        if (w.lastUse < victim->lastUse)
            victim = &w;
    }
    if (!victim->valid)
        return false;
    dirty = victim->dirty;
    victim_addr = (victim->tag * numSets_ + set_idx) * lineSize_;
    return true;
}

void
Directory::markDirty(std::uint64_t addr)
{
    Way *w = findWay(addr);
    if (w != nullptr)
        w->dirty = true;
}

Cache::Cache(sim::Engine *engine, const std::string &name, sim::Freq freq,
             const Config &cfg)
    : TickingComponent(engine, name, freq), cfg_(cfg),
      directory_(cfg.numSets, cfg.ways, cfg.lineSize)
{
    topPort_ = addPort("TopPort", cfg.topBufCapacity);
    bottomPort_ = addPort("BottomPort", cfg.bottomBufCapacity);

    declareField("transactions", [this]() {
        return introspect::Value::ofContainer(transactionCount(), {});
    });
    declareField("mshr_capacity", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(cfg_.mshrCapacity));
    });
    declareField("hits", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(directory_.hits()));
    });
    declareField("misses", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(directory_.misses()));
    });
    declareField("writes_forwarded", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(writesForwarded_));
    });
}

std::size_t
Cache::transactionCount() const
{
    return mshr_.size() + writeQueue_.size() + writeInflight_.size();
}

bool
Cache::tick()
{
    bool progress = false;
    progress |= deliverReady();
    progress |= processBottom();
    progress |= issueDownstream();
    progress |= admit();
    if (!progress && !hitQueue_.empty() &&
        hitQueue_.front().readyAt > engine()->now()) {
        // Sleep until the pipeline's head is ready. (A head that is
        // ready but blocked is woken by the connection when the
        // destination frees space.)
        scheduleTickAt(hitQueue_.front().readyAt);
    }
    return progress;
}

bool
Cache::deliverReady()
{
    sim::VTime now = engine()->now();
    bool progress = false;
    while (!hitQueue_.empty() && hitQueue_.front().readyAt <= now) {
        MemRspPtr rsp = hitQueue_.front().rsp;
        if (topPort_->send(rsp) != sim::SendStatus::Ok)
            break;
        hitQueue_.pop_front();
        progress = true;
    }
    return progress;
}

bool
Cache::processBottom()
{
    bool progress = false;
    for (std::size_t i = 0; i < cfg_.width; i++) {
        sim::MsgPtr msg = bottomPort_->peekIncoming();
        if (msg == nullptr)
            break;
        auto rsp = sim::msgCast<MemRsp>(msg);
        if (rsp == nullptr) {
            bottomPort_->retrieveIncoming();
            continue;
        }

        // Write acknowledgment for a forwarded write-through.
        auto wit = writeInflight_.find(rsp->reqId);
        if (wit != writeInflight_.end()) {
            rsp->dst = wit->second;
            if (topPort_->send(rsp) != sim::SendStatus::Ok)
                break;
            writeInflight_.erase(wit);
            bottomPort_->retrieveIncoming();
            progress = true;
            continue;
        }

        // Line fill completing an MSHR fetch.
        auto fit = fetchToLine_.find(rsp->reqId);
        if (fit == fetchToLine_.end()) {
            bottomPort_->retrieveIncoming();
            continue;
        }
        std::uint64_t line = fit->second;
        auto mit = mshr_.find(line);
        if (mit == mshr_.end()) {
            fetchToLine_.erase(fit);
            bottomPort_->retrieveIncoming();
            continue;
        }

        bool evictedDirty = false;
        std::uint64_t victim = 0;
        directory_.install(line, false, evictedDirty, victim);
        // Write-through: victims are never dirty, nothing to write back.

        sim::VTime ready =
            engine()->now() + cfg_.hitLatency * freq().period();
        for (const auto &p : mit->second.pending) {
            MemRspPtr r = makeRsp(*p.req);
            r->dst = p.returnTo;
            hitQueue_.push_back(ReadyRsp{r, ready});
        }
        mshr_.erase(mit);
        fetchToLine_.erase(fit);
        bottomPort_->retrieveIncoming();
        progress = true;
    }
    return progress;
}

bool
Cache::issueDownstream()
{
    bool progress = false;

    // Issue line fetches for MSHR entries without one.
    for (auto &kv : mshr_) {
        if (kv.second.fetchSent)
            continue;
        auto fetch = sim::makeMsg<MemReq>(
            kv.first, static_cast<std::uint32_t>(cfg_.lineSize), false);
        fetch->translated = true;
        fetch->dst = mapper_->find(kv.first);
        if (bottomPort_->send(fetch) != sim::SendStatus::Ok)
            break;
        kv.second.fetchSent = true;
        kv.second.fetchReqId = fetch->id();
        fetchToLine_[fetch->id()] = kv.first;
        progress = true;
    }

    // Forward writes in order.
    std::size_t sent = 0;
    while (!writeQueue_.empty() && sent < cfg_.width) {
        PendingReq &p = writeQueue_.front();
        p.req->dst = mapper_->find(p.req->addr);
        if (bottomPort_->send(p.req) != sim::SendStatus::Ok)
            break;
        writeInflight_[p.req->id()] = p.returnTo;
        writeQueue_.pop_front();
        writesForwarded_++;
        sent++;
        progress = true;
    }
    return progress;
}

bool
Cache::admit()
{
    sim::VTime now = engine()->now();
    bool progress = false;
    for (std::size_t i = 0; i < cfg_.width; i++) {
        sim::MsgPtr msg = topPort_->peekIncoming();
        if (msg == nullptr)
            break;
        auto req = sim::msgCast<MemReq>(msg);
        if (req == nullptr) {
            topPort_->retrieveIncoming();
            continue;
        }

        if (req->isWrite) {
            if (transactionCount() >= cfg_.mshrCapacity)
                break; // Backpressure: leave it in the top buffer.
            directory_.markDirty(req->addr);
            writeQueue_.push_back(PendingReq{req, msg->src});
            topPort_->retrieveIncoming();
            progress = true;
            continue;
        }

        // Probe first (no side effects): a request stalled by a full
        // MSHR is retried next tick and must not double-count stats or
        // perturb LRU state.
        std::uint64_t line = directory_.lineAddr(req->addr);
        if (directory_.probe(req->addr)) {
            directory_.lookup(req->addr); // Count the hit, touch LRU.
            MemRspPtr rsp = makeRsp(*req);
            rsp->dst = msg->src;
            hitQueue_.push_back(ReadyRsp{
                rsp, now + cfg_.hitLatency * freq().period()});
            topPort_->retrieveIncoming();
            progress = true;
            continue;
        }

        auto mit = mshr_.find(line);
        if (mit != mshr_.end()) {
            // Coalesce with the in-flight fetch of the same line.
            directory_.lookup(req->addr); // Count the miss.
            mit->second.pending.push_back(PendingReq{req, msg->src});
            topPort_->retrieveIncoming();
            progress = true;
            continue;
        }

        if (transactionCount() >= cfg_.mshrCapacity)
            break; // MSHR full: stall the top port (not counted).
        directory_.lookup(req->addr); // Count the miss.
        MshrEntry entry;
        entry.pending.push_back(PendingReq{req, msg->src});
        mshr_.emplace(line, std::move(entry));
        topPort_->retrieveIncoming();
        progress = true;
    }
    return progress;
}

} // namespace mem
} // namespace akita
