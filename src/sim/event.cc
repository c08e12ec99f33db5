#include "sim/event.hh"

#include <algorithm>

namespace akita
{
namespace sim
{

void
EventQueue::push(EventPtr event)
{
    VTime t = event->time();
    Bucket *b;
    if (pushBucket_ != nullptr && pushTime_ == t) {
        b = pushBucket_;
    } else if (front_ != nullptr && frontTime_ == t) {
        b = front_;
    } else {
        auto it = buckets_.find(t);
        if (it == buckets_.end()) {
            if (!spareNodes_.empty()) {
                // Reuse a drained node: the rehash-free insert keeps the
                // bucket's vector capacity from its previous life.
                auto nh = std::move(spareNodes_.back());
                spareNodes_.pop_back();
                nh.key() = t;
                it = buckets_.insert(std::move(nh)).position;
            } else {
                it = buckets_.try_emplace(t).first;
            }
        }
        b = &it->second;
    }
    pushBucket_ = b;
    pushTime_ = t;
    bool wasLive = b->live();
    if (event->isSecondary())
        b->secondary.push_back(std::move(event));
    else
        b->primary.push_back(std::move(event));
    if (!wasLive) {
        // Invariant: the heap holds every live timestamp at least once.
        // Re-pushing a timestamp whose stale entry is still queued only
        // creates a harmless duplicate that pruning discards later.
        timesHeap_.push_back(t);
        std::push_heap(timesHeap_.begin(), timesHeap_.end(),
                       std::greater<VTime>());
        if (front_ != nullptr && t < frontTime_)
            front_ = nullptr; // A new earliest time.
    }
    size_++;
}

EventQueue::Bucket *
EventQueue::frontBucket() const
{
    // A cached front stays the earliest live bucket: every push that
    // makes an earlier time live clears it.
    if (front_ != nullptr && front_->live())
        return front_;
    front_ = nullptr;
    while (!timesHeap_.empty()) {
        VTime t = timesHeap_.front();
        auto it = buckets_.find(t);
        if (it != buckets_.end() && it->second.live()) {
            front_ = &it->second;
            frontTime_ = t;
            return front_;
        }
        std::pop_heap(timesHeap_.begin(), timesHeap_.end(),
                      std::greater<VTime>());
        timesHeap_.pop_back();
        if (it != buckets_.end() && !it->second.live()) {
            // The node leaves the map and may come back under another
            // time: a cached pointer to it would file pushes there.
            if (pushBucket_ == &it->second)
                pushBucket_ = nullptr;
            auto nh = buckets_.extract(it);
            if (spareNodes_.size() < kMaxSpareNodes) {
                Bucket &b = nh.mapped();
                b.primary.clear();
                b.secondary.clear();
                b.primaryHead = 0;
                b.secondaryHead = 0;
                spareNodes_.push_back(std::move(nh));
            }
        }
    }
    return nullptr;
}

VTime
EventQueue::peekTime() const
{
    frontBucket();
    return frontTime_;
}

EventPtr
EventQueue::pop()
{
    Bucket *b = frontBucket();
    EventPtr out;
    if (b->livePrimary()) {
        out = std::move(b->primary[b->primaryHead++]);
        if (!b->livePrimary()) {
            b->primary.clear();
            b->primaryHead = 0;
        }
    } else {
        out = std::move(b->secondary[b->secondaryHead++]);
        if (!b->liveSecondary()) {
            b->secondary.clear();
            b->secondaryHead = 0;
        }
    }
    size_--;
    return out;
}

} // namespace sim
} // namespace akita
