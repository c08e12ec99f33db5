#include "gpu/cu.hh"

namespace akita
{
namespace gpu
{

ComputeUnit::ComputeUnit(sim::Engine *engine, const std::string &name,
                         sim::Freq freq, const Config &cfg)
    : TickingComponent(engine, name, freq), cfg_(cfg)
{
    ctrlPort_ = addPort("CtrlPort", cfg.ctrlBufCapacity);
    memPort_ = addPort("MemPort", cfg.memBufCapacity);

    declareField("wavefronts", [this]() {
        return introspect::Value::ofContainer(wavefronts_.size(), {});
    });
    declareField("outstanding_mem", [this]() {
        return introspect::Value::ofContainer(outstanding_.size(), {});
    });
    declareField("completed_wgs", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(completedWGs()));
    });
    declareField("mem_reqs_issued", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(memReqsIssued()));
    });
}

bool
ComputeUnit::tick()
{
    bool progress = false;
    progress |= processMemResponses();
    progress |= execute();
    progress |= acceptWorkGroups();
    return progress;
}

bool
ComputeUnit::processMemResponses()
{
    bool progress = false;
    while (true) {
        sim::MsgPtr msg = memPort_->peekIncoming();
        if (msg == nullptr)
            break;
        auto rsp = sim::msgCast<mem::MemRsp>(msg);
        if (rsp == nullptr) {
            memPort_->retrieveIncoming();
            continue;
        }
        auto oit = outstanding_.find(rsp->reqId);
        if (oit != outstanding_.end()) {
            auto wit = wavefronts_.find(oit->second);
            if (wit != wavefronts_.end() &&
                wit->second.outstanding > 0) {
                wit->second.outstanding--;
            }
            outstanding_.erase(oit);
        }
        memPort_->retrieveIncoming();
        progress = true;
    }
    return progress;
}

bool
ComputeUnit::execute()
{
    bool progress = false;
    std::size_t memIssued = 0;
    std::vector<std::uint64_t> finished;

    for (auto &kv : wavefronts_) {
        Wavefront &wf = kv.second;
        if (wf.pc >= wf.ops.size()) {
            if (wf.outstanding == 0)
                finished.push_back(kv.first);
            continue;
        }

        const WfOp &op = wf.ops[wf.pc];

        // Compute acts as a fence: wait for in-flight accesses first.
        if (op.computeCycles > 0 && !wf.primed && wf.outstanding > 0)
            continue;
        if (!wf.primed) {
            wf.computeRemaining = op.computeCycles;
            wf.primed = true;
        }

        if (wf.computeRemaining > 0) {
            wf.computeRemaining--;
            progress = true;
            if (wf.computeRemaining > 0)
                continue;
        }

        if (!op.hasMem()) {
            wf.pc++;
            wf.primed = false;
            progress = true;
            continue;
        }

        // Memory op: pipeline up to the MLP depth.
        if (wf.outstanding >= cfg_.maxOutstandingPerWf)
            continue;
        if (memIssued >= cfg_.memIssuePerCycle)
            continue;
        auto req =
            sim::makeMsg<mem::MemReq>(op.addr, op.size, op.isWrite);
        req->dst = memDownstream_;
        if (memPort_->send(req) != sim::SendStatus::Ok)
            continue; // Backpressure: retry next cycle.
        outstanding_[req->id()] = kv.first;
        wf.outstanding++;
        wf.pc++;
        wf.primed = false;
        memIssued++;
        memReqsIssued_.inc();
        progress = true;
    }

    for (std::uint64_t uid : finished) {
        finishWavefront(uid);
        progress = true;
    }

    // Report completed work-groups to the command processor.
    while (!doneWgQueue_.empty() && cpPort_ != nullptr) {
        auto done = sim::makeMsg<WgDoneMsg>(doneWgQueue_.back());
        done->dst = cpPort_;
        if (ctrlPort_->send(done) != sim::SendStatus::Ok)
            break;
        doneWgQueue_.pop_back();
        progress = true;
    }
    return progress;
}

void
ComputeUnit::finishWavefront(std::uint64_t uid)
{
    auto it = wavefronts_.find(uid);
    if (it == wavefronts_.end())
        return;
    std::uint32_t wg = it->second.wgId;
    wavefronts_.erase(it);

    auto wit = wgRemaining_.find(wg);
    if (wit == wgRemaining_.end())
        return;
    if (--wit->second == 0) {
        wgRemaining_.erase(wit);
        completedWGs_.inc();
        doneWgQueue_.push_back(wg);
    }
}

bool
ComputeUnit::acceptWorkGroups()
{
    bool progress = false;
    while (true) {
        sim::MsgPtr msg = ctrlPort_->peekIncoming();
        if (msg == nullptr)
            break;
        auto map = sim::msgCast<MapWgMsg>(msg);
        if (map == nullptr) {
            ctrlPort_->retrieveIncoming();
            continue;
        }
        std::uint32_t wfCount = map->kernel->wavefrontsPerWG;
        if (wavefronts_.size() + wfCount > cfg_.maxWavefronts)
            break; // No room: leave the request buffered.

        cpPort_ = msg->src;
        if (wfCount == 0) {
            // Degenerate work-group: nothing to run, complete at once.
            completedWGs_.inc();
            doneWgQueue_.push_back(map->wgId);
            ctrlPort_->retrieveIncoming();
            progress = true;
            continue;
        }
        for (std::uint32_t wf = 0; wf < wfCount; wf++) {
            Wavefront w;
            w.wgId = map->wgId;
            w.ops = map->kernel->trace
                        ? map->kernel->trace(map->wgId, wf)
                        : std::vector<WfOp>{};
            wavefronts_.emplace(nextWfUid_++, std::move(w));
        }
        wgRemaining_[map->wgId] = wfCount;
        ctrlPort_->retrieveIncoming();
        progress = true;
    }
    return progress;
}

} // namespace gpu
} // namespace akita
