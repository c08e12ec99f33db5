/**
 * @file
 * Hot-path metric instruments: counter, gauge, histogram.
 *
 * These are the recording half of the metrics subsystem. They live
 * inside simulation objects (ports, buffers, the engine) and are
 * updated on the simulation thread with relaxed atomics — a handful of
 * nanoseconds per update, no locks, no allocation — preserving the
 * paper's §VII overhead discipline. Aggregation into time series
 * happens elsewhere, on the sampler thread (see registry.hh), which
 * reads these atomics without stopping the simulation.
 */

#ifndef AKITA_METRICS_INSTRUMENT_HH
#define AKITA_METRICS_INSTRUMENT_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace akita
{
namespace metrics
{

/**
 * A monotonically increasing event count with one writing thread.
 *
 * Only the thread that owns the counted object may call inc() (the
 * simulation thread, or the domain worker owning a port or buffer;
 * DESIGN.md §8); any thread may read value(). inc() is a relaxed
 * load+store, which compiles to plain MOVs instead of fetch_add's
 * lock-prefixed RMW; the atomic type keeps readers race-free. Two
 * concurrent writers would lose counts.
 */
class Counter
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        v_.store(v_.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/** A value that can go up and down (occupancy, rate, level). */
class Gauge
{
  public:
    void
    set(double v)
    {
        v_.store(v, std::memory_order_relaxed);
    }

    void
    add(double d)
    {
        double cur = v_.load(std::memory_order_relaxed);
        while (!v_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
        }
    }

    double
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> v_{0.0};
};

/**
 * A fixed-bucket histogram of observed values.
 *
 * Bucket upper bounds are set at construction (ascending); one
 * overflow bucket catches everything above the last bound. observe()
 * is lock-free: a binary search over the bounds plus two relaxed
 * atomic adds.
 */
class Histogram
{
  public:
    /** A consistent copy of the histogram's state. */
    struct Snapshot
    {
        std::vector<double> bounds;
        /** Per-bucket (non-cumulative) counts; size bounds.size()+1. */
        std::vector<std::uint64_t> counts;
        double sum = 0;
        std::uint64_t count = 0;

        /**
         * Estimates the @p q quantile (0..1) by linear interpolation
         * within the containing bucket. The first bucket interpolates
         * from 0; observations above the last bound report the last
         * bound (the histogram cannot resolve further).
         */
        double
        quantile(double q) const
        {
            if (count == 0)
                return 0.0;
            if (q < 0)
                q = 0;
            if (q > 1)
                q = 1;
            double rank = q * static_cast<double>(count);
            std::uint64_t seen = 0;
            for (std::size_t i = 0; i < counts.size(); i++) {
                if (counts[i] == 0)
                    continue;
                double lo = i == 0 ? 0.0 : bounds[i - 1];
                if (i >= bounds.size())
                    return bounds.empty() ? 0.0 : bounds.back();
                double hi = bounds[i];
                if (static_cast<double>(seen + counts[i]) >= rank) {
                    double within =
                        (rank - static_cast<double>(seen)) /
                        static_cast<double>(counts[i]);
                    return lo + (hi - lo) * within;
                }
                seen += counts[i];
            }
            return bounds.empty() ? 0.0 : bounds.back();
        }
    };

    explicit Histogram(std::vector<double> bounds)
        : bounds_(std::move(bounds)),
          counts_(std::make_unique<std::atomic<std::uint64_t>[]>(
              bounds_.size() + 1))
    {
    }

    void
    observe(double v)
    {
        std::size_t lo = 0, hi = bounds_.size();
        while (lo < hi) {
            std::size_t mid = (lo + hi) / 2;
            if (v <= bounds_[mid])
                hi = mid;
            else
                lo = mid + 1;
        }
        counts_[lo].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        double cur = sum_.load(std::memory_order_relaxed);
        while (!sum_.compare_exchange_weak(cur, cur + v,
                                           std::memory_order_relaxed)) {
        }
    }

    const std::vector<double> &bounds() const { return bounds_; }

    Snapshot
    snapshot() const
    {
        Snapshot s;
        s.bounds = bounds_;
        s.counts.resize(bounds_.size() + 1);
        for (std::size_t i = 0; i <= bounds_.size(); i++)
            s.counts[i] = counts_[i].load(std::memory_order_relaxed);
        s.sum = sum_.load(std::memory_order_relaxed);
        s.count = count_.load(std::memory_order_relaxed);
        return s;
    }

  private:
    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
    std::atomic<double> sum_{0.0};
    std::atomic<std::uint64_t> count_{0};
};

} // namespace metrics
} // namespace akita

#endif // AKITA_METRICS_INSTRUMENT_HH
