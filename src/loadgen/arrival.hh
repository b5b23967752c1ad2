/**
 * @file
 * Pluggable open-loop arrival processes for trace-driven load.
 *
 * Three inter-arrival kinds cover the load shapes serverless
 * platforms see in production:
 *
 *   - Poisson: memoryless arrivals at a constant rate (the paper's
 *     §VII load generator);
 *   - Diurnal: a Poisson process whose instantaneous rate follows a
 *     sinusoid, compressing a day/night cycle into simulated seconds;
 *   - Bursty: a two-state Markov-modulated Poisson process (MMPP-2)
 *     alternating calm and burst phases, with the calm rate chosen so
 *     the long-run average equals the configured rps.
 *
 * A load shape (constant / ramp / step) multiplies the base rate on
 * top of the kind, for warm-up ramps and step-load experiments.
 * Everything draws from one forked Rng stream, so a process is a
 * deterministic function of (spec, seed).
 */

#ifndef SPECFAAS_LOADGEN_ARRIVAL_HH
#define SPECFAAS_LOADGEN_ARRIVAL_HH

#include "common/rng.hh"
#include "common/types.hh"

namespace specfaas {

/** Static description of one arrival process. */
struct ArrivalSpec
{
    enum class Kind
    {
        Poisson, ///< constant-rate memoryless arrivals
        Diurnal, ///< sinusoidally modulated rate
        Bursty,  ///< two-state MMPP (calm / burst)
    };

    Kind kind = Kind::Poisson;

    /** Long-run average offered load, requests per second. */
    double rps = 100.0;

    /** @{ Diurnal: rate(t) = rps × (1 + amplitude·sin(2πt/period)). */
    double diurnalAmplitude = 0.5; ///< in [0, 1)
    Tick diurnalPeriod = 10 * kSecond;
    /** @} */

    /** @{ Bursty: burst rate = burstMultiplier × calm rate; bursts
     * cover burstDuty of the time and last meanBurstLen on average
     * (calm phases are sized so duty holds). */
    double burstMultiplier = 4.0;
    double burstDuty = 0.2; ///< fraction of time in burst, (0, 1)
    Tick meanBurstLen = 200 * kMillisecond;
    /** @} */
};

/**
 * One running arrival process. The first nextGap() call anchors the
 * process's time origin, so sinusoid phases are relative
 * to the start of the run, not to absolute simulated time.
 */
class ArrivalProcess
{
  public:
    /**
     * @param spec validated process description (fatal on nonsense:
     *        non-positive rps, amplitude ≥ 1, duty outside (0,1))
     * @param rng private stream (fork one per process)
     */
    ArrivalProcess(const ArrivalSpec& spec, Rng rng);

    /**
     * Draw the gap to the next arrival given the current time.
     * Exponential at the instantaneous rate; at least one tick.
     */
    Tick nextGap(Tick now);

    /** Instantaneous rate at @p now, in rps. */
    double rateAt(Tick now) const;

    /** True while the MMPP is in its burst phase (tests). */
    bool inBurst() const { return burst_; }

    const ArrivalSpec& spec() const { return spec_; }

  private:
    /** Advance the MMPP phase machine up to @p now. */
    void advanceBursts(Tick now);

    ArrivalSpec spec_;
    Rng rng_;
    Tick origin_ = -1; ///< set on the first nextGap() call
    /** @{ MMPP-2 state. */
    bool burst_ = false;
    Tick stateUntil_ = 0;
    double meanCalmLen_ = 0.0;
    double calmRate_ = 0.0;
    /** @} */
};

} // namespace specfaas

#endif // SPECFAAS_LOADGEN_ARRIVAL_HH
