#include "mem/rdma.hh"

namespace akita
{
namespace mem
{

RdmaEngine::RdmaEngine(sim::Engine *engine, const std::string &name,
                       sim::Freq freq, const Config &cfg)
    : TickingComponent(engine, name, freq), cfg_(cfg)
{
    toInside_ = addPort("ToInside", cfg.insideBufCapacity);
    toOutside_ = addPort("ToOutside", cfg.outsideBufCapacity);
    toOutsideRsp_ = addPort("ToOutsideRsp", cfg.outsideBufCapacity);

    declareField("transactions", [this]() {
        return introspect::Value::ofContainer(transactionCount(), {});
    });
    declareField("outgoing", [this]() {
        return introspect::Value::ofContainer(outgoing_.size(), {});
    });
    declareField("incoming", [this]() {
        return introspect::Value::ofContainer(incoming_.size(), {});
    });
    declareField("forwarded_out", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(totalForwardedOut()));
    });
    declareField("forwarded_in", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(totalForwardedIn()));
    });
}

bool
RdmaEngine::tick()
{
    bool progress = false;
    progress |= processOutsideRsp();
    progress |= processOutside();
    progress |= processInside();
    return progress;
}

bool
RdmaEngine::processOutsideRsp()
{
    // Responses arriving on the dedicated response network.
    bool progress = false;
    for (std::size_t i = 0; i < cfg_.width; i++) {
        sim::MsgPtr msg = toOutsideRsp_->peekIncoming();
        if (msg == nullptr)
            break;
        auto rsp = sim::msgCast<MemRsp>(msg);
        if (rsp == nullptr) {
            toOutsideRsp_->retrieveIncoming();
            continue;
        }
        auto it = outgoing_.find(rsp->reqId);
        if (it == outgoing_.end()) {
            toOutsideRsp_->retrieveIncoming();
            continue;
        }
        rsp->finalDst = nullptr; // Leaving the switched fabric.
        rsp->dst = it->second;
        if (toInside_->send(rsp) != sim::SendStatus::Ok)
            break;
        outgoing_.erase(it);
        toOutsideRsp_->retrieveIncoming();
        progress = true;
    }
    return progress;
}

bool
RdmaEngine::processInside()
{
    bool progress = false;
    for (std::size_t i = 0; i < cfg_.width; i++) {
        sim::MsgPtr msg = toInside_->peekIncoming();
        if (msg == nullptr)
            break;

        if (auto req = sim::msgCast<MemReq>(msg)) {
            // Local requester accessing a remote page.
            if (outgoing_.size() >= cfg_.maxOutstanding)
                break;
            sim::Port *returnTo = msg->src;
            sim::Port *remote = remoteFinder_(req->addr);
            if (outsideFirstHop_ != nullptr) {
                // Switched fabric: replies come home on the response
                // network, addressed to our response-side port.
                req->replyTo = toOutsideRsp_;
                req->finalDst = remote;
                req->dst = outsideFirstHop_;
            } else {
                req->replyTo = toOutside_;
                req->dst = remote;
            }
            if (toOutside_->send(req) != sim::SendStatus::Ok)
                break;
            outgoing_[req->id()] = returnTo;
            forwardedOut_.inc();
            toInside_->retrieveIncoming();
            progress = true;
            continue;
        }

        if (auto rsp = sim::msgCast<MemRsp>(msg)) {
            // Local L2 answered a remote chiplet's request.
            auto it = incoming_.find(rsp->reqId);
            if (it == incoming_.end()) {
                toInside_->retrieveIncoming();
                continue;
            }
            sim::SendStatus st;
            if (outsideRspFirstHop_ != nullptr) {
                rsp->finalDst = it->second;
                rsp->dst = outsideRspFirstHop_;
                st = toOutsideRsp_->send(rsp);
            } else {
                rsp->dst = it->second;
                st = toOutside_->send(rsp);
            }
            if (st != sim::SendStatus::Ok)
                break;
            incoming_.erase(it);
            toInside_->retrieveIncoming();
            progress = true;
            continue;
        }

        toInside_->retrieveIncoming(); // Drop foreign messages.
    }
    return progress;
}

bool
RdmaEngine::processOutside()
{
    bool progress = false;
    for (std::size_t i = 0; i < cfg_.width; i++) {
        sim::MsgPtr msg = toOutside_->peekIncoming();
        if (msg == nullptr)
            break;

        if (auto req = sim::msgCast<MemReq>(msg)) {
            // Remote chiplet accessing our memory. On a switched fabric
            // src is the last hop, so the origin travels in replyTo.
            sim::Port *origin =
                msg->replyTo != nullptr ? msg->replyTo : msg->src;
            req->finalDst = nullptr; // Leaving the switched fabric.
            req->dst = localMapper_->find(req->addr);
            if (toInside_->send(req) != sim::SendStatus::Ok)
                break;
            incoming_[req->id()] = origin;
            forwardedIn_.inc();
            toOutside_->retrieveIncoming();
            progress = true;
            continue;
        }

        if (auto rsp = sim::msgCast<MemRsp>(msg)) {
            // Remote chiplet answered one of our outgoing requests.
            auto it = outgoing_.find(rsp->reqId);
            if (it == outgoing_.end()) {
                toOutside_->retrieveIncoming();
                continue;
            }
            rsp->dst = it->second;
            if (toInside_->send(rsp) != sim::SendStatus::Ok)
                break;
            outgoing_.erase(it);
            toOutside_->retrieveIncoming();
            progress = true;
            continue;
        }

        toOutside_->retrieveIncoming();
    }
    return progress;
}

} // namespace mem
} // namespace akita
