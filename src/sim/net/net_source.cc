#include "sim/net/net_source.hh"

#include <cmath>
#include <stdexcept>

namespace swcc
{

NetSource::NetSource(double mean_think, double units_mean,
                     std::uint32_t num_dests)
    : meanThink_(mean_think), unitsMean_(units_mean), numDests_(num_dests)
{
    if (mean_think < 0.0) {
        throw std::invalid_argument("mean think time must be >= 0");
    }
    if (units_mean < 1.0) {
        throw std::invalid_argument(
            "transactions need at least one unit request on average");
    }
    if (num_dests == 0) {
        throw std::invalid_argument("need at least one destination");
    }
    // Sources start mid-think with a deterministic stagger-free draw on
    // the first tick; stateLeft_ == 0 forces an immediate transition.
    state_ = State::Thinking;
    stateLeft_ = 0.0;
}

void
NetSource::beginThink(Rng &rng)
{
    state_ = State::Thinking;
    if (meanThink_ <= 0.0) {
        stateLeft_ = 0.0;
        return;
    }
    const double p = meanThink_ >= 1.0 ? 1.0 / meanThink_ : 1.0;
    stateLeft_ = static_cast<double>(rng.geometric(p));
}

void
NetSource::beginRequest(Rng &rng)
{
    state_ = State::Requesting;
    unitsDone_ = 0.0;
    // Randomised floor/ceil keeps the per-transaction mean at
    // unitsMean_ even when it is fractional.
    const double whole = std::floor(unitsMean_);
    unitsTarget_ = whole +
        (rng.chance(unitsMean_ - whole) ? 1.0 : 0.0);
    if (unitsTarget_ < 1.0) {
        unitsTarget_ = 1.0;
    }
    dest_ = static_cast<std::uint32_t>(rng.below(numDests_));
}

void
NetSource::tick(Rng &rng)
{
    switch (state_) {
      case State::Thinking:
        if (stateLeft_ <= 0.0) {
            beginRequest(rng);
            return;
        }
        stateLeft_ -= 1.0;
        if (stateLeft_ <= 0.0) {
            beginRequest(rng);
        }
        return;
      case State::Holding:
        stateLeft_ -= 1.0;
        if (stateLeft_ <= 0.0) {
            ++transactions_;
            beginThink(rng);
        }
        return;
      case State::Requesting:
        // Requests advance via unitAccepted()/startHolding().
        return;
    }
}

void
NetSource::unitAccepted(Rng &rng)
{
    if (state_ != State::Requesting) {
        throw std::logic_error("unitAccepted on a non-requesting source");
    }
    unitsDone_ += 1.0;
    if (unitsDone_ >= unitsTarget_) {
        ++transactions_;
        beginThink(rng);
    }
}

void
NetSource::startHolding(double cycles)
{
    if (state_ != State::Requesting) {
        throw std::logic_error("startHolding on a non-requesting source");
    }
    state_ = State::Holding;
    stateLeft_ = cycles;
}

std::uint64_t
NetSource::ticksLeft() const
{
    return stateLeft_ <= 0.0
        ? 1
        : static_cast<std::uint64_t>(std::ceil(stateLeft_));
}

void
NetSource::expire(Rng &rng)
{
    stateLeft_ -= static_cast<double>(ticksLeft() - 1);
    tick(rng);
}

} // namespace swcc
