/**
 * @file
 * Bounded-memory metric aggregation for benchmarks.
 *
 * Two pieces:
 *
 *  - LatencyHistogram: a log-bucketed (HDR-style) histogram with
 *    percentile queries. Bench loops that used to retain every
 *    response time in a raw vector record into one of these instead;
 *    memory is O(log(range)) and percentiles stay within one
 *    sub-bucket (~6% relative error at 16 sub-buckets per octave).
 *
 *  - TimeSeriesSampler: samples named gauges (in-flight invocations,
 *    warm-pool occupancy, busy cores, outstanding speculative
 *    instances) on a fixed simulated-time cadence. It self-reschedules
 *    with EventQueue::scheduleDaemon so it never keeps a run alive,
 *    and when its sample buffer fills it halves the resolution (drop
 *    every other sample, double the interval) instead of growing —
 *    the whole run is always covered at bounded memory.
 *
 * Finished samplers deposit their series into a process-global
 * SamplerArchive so the JSON run report can include utilization
 * timelines after the platforms that produced them are destroyed.
 */

#ifndef SPECFAAS_OBS_HISTOGRAM_HH
#define SPECFAAS_OBS_HISTOGRAM_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/event_queue.hh"

namespace specfaas::obs {

/**
 * Log-bucketed histogram for non-negative quantities (latencies in
 * ticks or milliseconds). Values below 1 share an underflow bucket;
 * above that, each power-of-two octave is split into kSubBuckets
 * geometrically-placed buckets.
 */
class LatencyHistogram
{
  public:
    /** Sub-buckets per power-of-two octave (relative error ~1/16). */
    static constexpr std::size_t kSubBuckets = 16;

    /** Record one observation. Negative/NaN clamp to the 0-bucket. */
    void add(double v);

    /** Accumulate another histogram into this one. */
    void merge(const LatencyHistogram& other);

    /** Number of observations. */
    std::uint64_t count() const { return count_; }
    /** Sum of observations (exact, not bucketed). */
    double sum() const { return sum_; }
    /** Mean of observations; NaN when empty. */
    double mean() const;
    /** Exact minimum observation; NaN when empty. */
    double min() const;
    /** Exact maximum observation; NaN when empty. */
    double max() const;

    /**
     * Percentile estimate by linear interpolation within the bucket
     * holding the requested rank, clamped to [min, max]. NaN when
     * empty. @param p percentile in [0, 100]
     */
    double percentile(double p) const;

    /** One non-empty bucket: [lower, upper) and its count. */
    struct Bucket
    {
        double lower;
        double upper;
        std::uint64_t count;
    };

    /** Non-empty buckets in ascending value order. */
    std::vector<Bucket> buckets() const;

  private:
    static std::size_t bucketIndex(double v);
    static double bucketLower(std::size_t idx);

    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Periodic gauge sampler driven by the simulation's EventQueue.
 *
 * Register gauges before start(); each firing appends one row of
 * gauge values at the current simulated time. The sampler schedules
 * itself as a daemon event, so EventQueue::run() still returns when
 * real work drains. At capacity the buffer is compacted: every other
 * sample is dropped and the interval doubles, keeping memory bounded
 * while the series always spans the whole run.
 */
class TimeSeriesSampler
{
  public:
    static constexpr std::size_t kDefaultMaxSamples = 4096;

    /**
     * @param events queue that drives the cadence
     * @param interval sampling period in ticks (> 0)
     * @param maxSamples compaction threshold (>= 2)
     */
    TimeSeriesSampler(EventQueue& events, Tick interval,
                      std::size_t maxSamples = kDefaultMaxSamples);
    ~TimeSeriesSampler();

    TimeSeriesSampler(const TimeSeriesSampler&) = delete;
    TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

    /** Register a gauge; only valid before the first sample. */
    void addGauge(std::string name, std::function<double()> fn);

    /** Take the first sample now and begin the periodic cadence. */
    void start();

    /** Cancel the pending tick; series data stays readable. */
    void stop();

    /** Current sampling period (doubles on each compaction). */
    Tick interval() const { return interval_; }

    /** Total samples taken, including compacted-away ones. */
    std::uint64_t observations() const { return observations_; }

    /** Sample timestamps currently retained. */
    const std::vector<Tick>& times() const { return times_; }

    std::size_t gaugeCount() const { return gauges_.size(); }
    const std::string& gaugeName(std::size_t g) const;
    /** Retained series for gauge @p g, aligned with times(). */
    const std::vector<double>& gaugeSeries(std::size_t g) const;

    /** Whole-run summary of one gauge (unaffected by compaction). */
    struct GaugeStats
    {
        std::uint64_t count = 0;
        double min = 0.0;
        double max = 0.0;
        double mean = 0.0;
        double last = 0.0;
    };
    GaugeStats gaugeStats(std::size_t g) const;

  private:
    struct Gauge
    {
        std::string name;
        std::function<double()> fn;
        std::vector<double> series;
        std::uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
        double last = 0.0;
    };

    void fire();
    void compact();

    EventQueue& events_;
    Tick interval_;
    std::size_t maxSamples_;
    EventId pending_ = 0;
    std::uint64_t observations_ = 0;
    std::vector<Tick> times_;
    std::vector<Gauge> gauges_;
};

/** One finished sampler's data, copied out for the run report. */
struct SampledSeries
{
    std::string label;             ///< platform / experiment label
    Tick interval = 0;             ///< final (post-compaction) period
    std::uint64_t observations = 0;
    std::vector<std::string> gaugeNames;
    std::vector<Tick> times;
    /** values[gauge][sample], aligned with times. */
    std::vector<std::vector<double>> values;
    std::vector<TimeSeriesSampler::GaugeStats> stats;
};

/**
 * Process-global store of finished sampler series. Platforms deposit
 * on teardown; the JSON report reads them at exit. Bounded: deposits
 * beyond kMaxSeries are counted but not stored (benches may build
 * dozens of platforms across load sweeps).
 */
class SamplerArchive
{
  public:
    static constexpr std::size_t kMaxSeries = 32;

    /** Copy @p sampler's series into the archive under @p label. */
    void deposit(const TimeSeriesSampler& sampler, std::string label);

    /** Append one already-extracted series (archive merges). */
    void deposit(SampledSeries series);

    /**
     * Append @p other's series in their deposit order, subject to
     * this archive's cap; @p other's dropped count carries over.
     */
    void absorb(const SamplerArchive& other);

    const std::vector<SampledSeries>& series() const { return series_; }
    /** Deposits rejected because the archive was full. */
    std::uint64_t dropped() const { return dropped_; }

    void clear();

  private:
    std::vector<SampledSeries> series_;
    std::uint64_t dropped_ = 0;
};

} // namespace specfaas::obs

#endif // SPECFAAS_OBS_HISTOGRAM_HH
