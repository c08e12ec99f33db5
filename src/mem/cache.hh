/**
 * @file
 * Set-associative write-through cache with a bounded MSHR (the L1V
 * cache of the case studies).
 */

#ifndef AKITA_MEM_CACHE_HH
#define AKITA_MEM_CACHE_HH

#include <deque>
#include <unordered_map>
#include <vector>

#include "mem/addr.hh"
#include "mem/msg.hh"
#include "metrics/instrument.hh"
#include "sim/component.hh"

namespace akita
{
namespace mem
{

/** Tag directory for a set-associative cache. */
class Directory
{
  public:
    Directory(std::size_t num_sets, std::size_t ways,
              std::uint64_t line_size);

    /** True when the line holding @p addr is present (updates LRU). */
    bool lookup(std::uint64_t addr);

    /** Presence check with no side effects (no LRU/stat update). */
    bool probe(std::uint64_t addr) const;

    /**
     * Installs the line holding @p addr.
     *
     * @param[out] evicted_dirty True when a dirty victim was evicted.
     * @param[out] victim_addr Address of the evicted victim line.
     * @return True when an existing valid victim was evicted.
     */
    bool install(std::uint64_t addr, bool dirty, bool &evicted_dirty,
                 std::uint64_t &victim_addr);

    /** Marks the line dirty; no-op when absent. */
    void markDirty(std::uint64_t addr);

    /**
     * Reports what installing @p addr would evict, without side effects.
     *
     * @param[out] dirty True when the would-be victim is dirty.
     * @param[out] victim_addr Line address of the would-be victim.
     * @return True when a valid line would be evicted.
     */
    bool peekVictim(std::uint64_t addr, bool &dirty,
                    std::uint64_t &victim_addr) const;

    std::uint64_t lineAddr(std::uint64_t addr) const
    {
        return addr / lineSize_ * lineSize_;
    }

    std::uint64_t lineSize() const { return lineSize_; }

    /** Hit/miss counters are owner-written metrics::Counters, so the
     * metrics sampler can read them from its own thread without the
     * engine lock. */
    std::uint64_t
    hits() const
    {
        return hits_.value();
    }

    std::uint64_t
    misses() const
    {
        return misses_.value();
    }

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    std::size_t setOf(std::uint64_t addr) const;
    std::uint64_t tagOf(std::uint64_t addr) const;
    Way *findWay(std::uint64_t addr);

    std::size_t numSets_;
    std::size_t ways_;
    std::uint64_t lineSize_;
    std::vector<std::vector<Way>> sets_;
    std::uint64_t useClock_ = 0;
    metrics::Counter hits_;
    metrics::Counter misses_;
};

/**
 * The L1 vector cache.
 *
 * Write-through, no-write-allocate; reads that miss allocate an MSHR
 * entry (coalescing same-line reads); the MSHR capacity bounds total
 * outstanding downstream transactions, which is the signature the case
 * study reads off the `transactions` time graph ("constantly maxed out
 * at 16 transactions ... limited by specific resources (MSHR)").
 */
class Cache : public sim::TickingComponent
{
  public:
    struct Config
    {
        std::uint64_t lineSize = 64;
        std::size_t numSets = 64;
        std::size_t ways = 4;
        std::uint64_t hitLatency = 1; // Cycles.
        std::size_t mshrCapacity = 16;
        std::size_t topBufCapacity = 4; // Fig. 3 shows 4.
        std::size_t bottomBufCapacity = 8;
        std::size_t width = 4;
    };

    Cache(sim::Engine *engine, const std::string &name, sim::Freq freq,
          const Config &cfg);

    /** Routes downstream traffic (L2 banks, or RDMA for remote pages). */
    void setMapper(const AddressMapper *mapper) { mapper_ = mapper; }

    sim::Port *topPort() const { return topPort_; }
    sim::Port *bottomPort() const { return bottomPort_; }

    bool tick() override;

    /** Outstanding downstream transactions (MSHR + inflight writes). */
    std::size_t transactionCount() const;

    const Directory &directory() const { return directory_; }

  private:
    struct PendingReq
    {
        MemReqPtr req;
        sim::Port *returnTo;
    };

    struct MshrEntry
    {
        std::vector<PendingReq> pending;
        bool fetchSent = false;
        std::uint64_t fetchReqId = 0;
    };

    struct ReadyRsp
    {
        MemRspPtr rsp;
        sim::VTime readyAt;
    };

    bool deliverReady();
    bool processBottom();
    bool issueDownstream();
    bool admit();

    Config cfg_;
    sim::Port *topPort_;
    sim::Port *bottomPort_;
    const AddressMapper *mapper_ = nullptr;

    Directory directory_;
    std::unordered_map<std::uint64_t, MshrEntry> mshr_; // By line addr.
    std::unordered_map<std::uint64_t, std::uint64_t> fetchToLine_;
    std::deque<PendingReq> writeQueue_; // Write-through forwarding.
    std::unordered_map<std::uint64_t, sim::Port *> writeInflight_;
    std::deque<ReadyRsp> hitQueue_;

    std::uint64_t writesForwarded_ = 0;
};

} // namespace mem
} // namespace akita

#endif // AKITA_MEM_CACHE_HH
