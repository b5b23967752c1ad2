#include "arrival.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace specfaas {

ArrivalProcess::ArrivalProcess(const ArrivalSpec& spec, Rng rng)
    : spec_(spec), rng_(rng)
{
    if (spec.rps <= 0.0)
        fatal("ArrivalSpec: rps must be > 0 (got %g)", spec.rps);
    if (spec.kind == ArrivalSpec::Kind::Diurnal &&
        (spec.diurnalAmplitude < 0.0 || spec.diurnalAmplitude >= 1.0))
        fatal("ArrivalSpec: diurnalAmplitude must be in [0, 1) "
              "(got %g; >= 1 makes the rate non-positive)",
              spec.diurnalAmplitude);
    if (spec.kind == ArrivalSpec::Kind::Diurnal &&
        spec.diurnalPeriod <= 0)
        fatal("ArrivalSpec: diurnalPeriod must be > 0");
    if (spec.kind == ArrivalSpec::Kind::Bursty) {
        if (spec.burstDuty <= 0.0 || spec.burstDuty >= 1.0)
            fatal("ArrivalSpec: burstDuty must be in (0, 1) (got %g)",
                  spec.burstDuty);
        if (spec.burstMultiplier < 1.0)
            fatal("ArrivalSpec: burstMultiplier must be >= 1 (got %g)",
                  spec.burstMultiplier);
        if (spec.meanBurstLen <= 0)
            fatal("ArrivalSpec: meanBurstLen must be > 0");
        // Long-run average rate is rps: calm rate cr satisfies
        // cr × (1 − duty) + cr × mult × duty = rps.
        calmRate_ =
            spec.rps /
            (1.0 + spec.burstDuty * (spec.burstMultiplier - 1.0));
        // Burst phases last meanBurstLen and occupy duty of the
        // timeline, so calm phases last the complementary share.
        meanCalmLen_ = static_cast<double>(spec.meanBurstLen) *
                       (1.0 - spec.burstDuty) / spec.burstDuty;
    }
}

double
ArrivalProcess::rateAt(Tick now) const
{
    const Tick t = origin_ >= 0 ? now - origin_ : 0;
    double rate = spec_.rps;
    switch (spec_.kind) {
    case ArrivalSpec::Kind::Poisson:
        break;
    case ArrivalSpec::Kind::Diurnal: {
        const double phase =
            2.0 * M_PI * static_cast<double>(t) /
            static_cast<double>(spec_.diurnalPeriod);
        rate = spec_.rps *
               (1.0 + spec_.diurnalAmplitude * std::sin(phase));
        break;
    }
    case ArrivalSpec::Kind::Bursty:
        rate = burst_ ? calmRate_ * spec_.burstMultiplier : calmRate_;
        break;
    }
    return rate;
}

void
ArrivalProcess::advanceBursts(Tick now)
{
    while (now >= stateUntil_) {
        burst_ = !burst_;
        const double mean_len =
            burst_ ? static_cast<double>(spec_.meanBurstLen)
                   : meanCalmLen_;
        stateUntil_ += std::max<Tick>(
            1, static_cast<Tick>(rng_.exponential(mean_len)));
    }
}

Tick
ArrivalProcess::nextGap(Tick now)
{
    if (origin_ < 0) {
        origin_ = now;
        if (spec_.kind == ArrivalSpec::Kind::Bursty) {
            // Start calm; the first flip is drawn like any other.
            burst_ = true; // advanceBursts flips to calm immediately
            stateUntil_ = now;
            advanceBursts(now);
        }
    } else if (spec_.kind == ArrivalSpec::Kind::Bursty) {
        advanceBursts(now);
    }
    const double rate = rateAt(now);
    const double mean_gap_us = 1e6 / rate;
    return std::max<Tick>(
        1, static_cast<Tick>(rng_.exponential(mean_gap_us)));
}

} // namespace specfaas
