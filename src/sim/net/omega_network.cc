#include "sim/net/omega_network.hh"

#include <algorithm>
#include <functional>
#include <iterator>
#include <stdexcept>

namespace swcc
{

namespace
{

std::uint32_t
portCount(const OmegaConfig &config)
{
    std::uint64_t ports = 1;
    for (unsigned i = 0; i < config.stages; ++i) {
        ports *= config.switchDim;
    }
    if (ports > (1u << 16)) {
        throw std::invalid_argument("network too large (> 64K ports)");
    }
    return static_cast<std::uint32_t>(ports);
}

} // namespace

void
OmegaConfig::validate() const
{
    if (stages == 0 || stages > 16) {
        throw std::invalid_argument("stages must be in [1, 16]");
    }
    if (switchDim < 2) {
        throw std::invalid_argument("switch dimension must be >= 2");
    }
    if (meanThink < 0.0) {
        throw std::invalid_argument("meanThink must be >= 0");
    }
    if (messageCycles < 1.0) {
        throw std::invalid_argument("messageCycles must be >= 1");
    }
    portCount(*this);
}

OmegaNetwork::OmegaNetwork(const OmegaConfig &config)
    : config_(config), ports_(portCount(config)), rng_(config.seed)
{
    config_.validate();
    sources_.reserve(ports_);
    for (std::uint32_t i = 0; i < ports_; ++i) {
        sources_.emplace_back(config_.meanThink, config_.messageCycles,
                              ports_);
    }
    paths_.assign(static_cast<std::size_t>(ports_) * config_.stages, 0);
    if (config_.mode == NetMode::Circuit) {
        portFreeAt_.assign(paths_.size(), 0.0);
    }
    slots_.resize(ports_);
    stageOffered_.assign(config_.stages, 0);
    // Every source starts Thinking with no time left, so all of them
    // fire in cycle 0.
    calendar_.reserve(ports_);
    for (std::uint32_t i = 0; i < ports_; ++i) {
        schedule(i, 0);
    }
    thinking_ = ports_;
}

void
OmegaNetwork::schedule(std::uint32_t source, std::uint64_t first_tick)
{
    const std::uint64_t expiry =
        first_tick + sources_[source].ticksLeft() - 1;
    calendar_.push_back((expiry << 16) | source);
    std::push_heap(calendar_.begin(), calendar_.end(), std::greater<>());
}

void
OmegaNetwork::computePath(std::uint32_t source)
{
    const unsigned n = config_.stages;
    const std::uint32_t dim = config_.switchDim;
    const std::uint32_t rotate_div = ports_ / dim; // dim^(n-1)
    const std::uint32_t dest = sources_[source].dest();
    std::uint32_t *path = &paths_[static_cast<std::size_t>(source) * n];
    std::uint32_t pos = source;
    std::uint32_t digit_div = rotate_div;
    for (unsigned stage = 0; stage < n; ++stage) {
        // k-ary perfect shuffle into the stage (rotate the top digit
        // to the bottom), then destination-digit routing.
        const std::uint32_t shuffled = n == 1
            ? pos
            : (pos % rotate_div) * dim + pos / rotate_div;
        const std::uint32_t out_digit = (dest / digit_div) % dim;
        pos = (shuffled / dim) * dim + out_digit;
        path[stage] = pos;
        digit_div /= dim;
    }
}

void
OmegaNetwork::route()
{
    const unsigned n = config_.stages;
    const bool circuit = config_.mode == NetMode::Circuit;
    const double now = static_cast<double>(now_);
    members_.clear();
    for (std::uint32_t k = 0; k < requesters_.size(); ++k) {
        members_.push_back(k);
    }
    alive_.assign(requesters_.size(), 1);

    for (unsigned stage = 0; stage < n; ++stage) {
        stageOffered_[stage] += members_.size();
        ++epoch_;
        const double *free_at =
            circuit ? &portFreeAt_[std::size_t{stage} * ports_] : nullptr;
        for (std::uint32_t k : members_) {
            const std::uint32_t port =
                paths_[std::size_t{requesters_[k]} * n + stage];
            if (circuit && free_at[port] > now) {
                alive_[k] = 0;
                continue;
            }
            Slot &slot = slots_[port];
            if (slot.epoch != epoch_) {
                slot = {epoch_, k, 1};
                continue;
            }
            // Up to dim inputs of one switch may want this output: the
            // i-th contender replaces the incumbent with probability
            // 1/i, making the final survivor uniform.
            ++slot.contenders;
            if (rng_.chance(1.0 / static_cast<double>(slot.contenders))) {
                alive_[slot.winner] = 0;
                slot.winner = k;
            } else {
                alive_[k] = 0;
            }
        }
        std::erase_if(members_,
                      [this](std::uint32_t k) { return !alive_[k]; });
    }

    winners_.clear();
    for (std::uint32_t k : members_) {
        winners_.push_back(requesters_[k]);
    }
}

void
OmegaNetwork::stepCycle()
{
    thinkCycles_ += thinking_;
    attempts_ += requesters_.size();
    route();
    accepted_ += winners_.size();

    // (2) Accepted sources. A source whose transaction completes here
    // must not also consume a think cycle now; its thinking starts
    // next cycle. A new circuit holder's setup cycle is its first held
    // cycle, so it ticks this cycle.
    const unsigned n = config_.stages;
    for (std::uint32_t src : winners_) {
        NetSource &source = sources_[src];
        if (config_.mode == NetMode::UnitRequest) {
            source.unitAccepted(rng_);
            if (source.state() == NetSource::State::Thinking) {
                ++thinking_;
                schedule(src, now_ + 1);
            }
            continue;
        }
        source.startHolding(config_.messageCycles);
        schedule(src, now_);
        // The winner claims every output port along its path for the
        // whole message duration.
        const std::uint32_t *path = &paths_[std::size_t{src} * n];
        const double free_at =
            static_cast<double>(now_) + config_.messageCycles;
        for (unsigned stage = 0; stage < n; ++stage) {
            portFreeAt_[std::size_t{stage} * ports_ + path[stage]] =
                free_at;
        }
    }
    std::erase_if(requesters_, [this](std::uint32_t src) {
        return sources_[src].state() != NetSource::State::Requesting;
    });

    // (3) Timers that fire this cycle, by ascending source id.
    fired_.clear();
    while (!calendar_.empty() && (calendar_.front() >> 16) == now_) {
        const auto src =
            static_cast<std::uint32_t>(calendar_.front() & 0xffff);
        std::pop_heap(calendar_.begin(), calendar_.end(),
                      std::greater<>());
        calendar_.pop_back();
        NetSource &source = sources_[src];
        source.expire(rng_);
        if (source.state() == NetSource::State::Requesting) {
            --thinking_;
            computePath(src);
            fired_.push_back(src);
        } else {
            ++thinking_;
            schedule(src, now_ + 1);
        }
    }
    if (!fired_.empty()) {
        merged_.clear();
        std::merge(requesters_.begin(), requesters_.end(),
                   fired_.begin(), fired_.end(),
                   std::back_inserter(merged_));
        requesters_.swap(merged_);
    }

    ++now_;
}

OmegaStats
OmegaNetwork::run(std::uint64_t cycles)
{
    const std::uint64_t end = now_ + cycles;
    while (now_ < end) {
        if (requesters_.empty()) {
            // Nothing in flight, so every source waits on a timer:
            // skip to the next one.
            const std::uint64_t wake =
                std::min(end, calendar_.front() >> 16);
            thinkCycles_ += thinking_ * (wake - now_);
            now_ = wake;
            if (now_ == end) {
                break;
            }
        }
        stepCycle();
    }

    OmegaStats stats;
    stats.cycles = now_;
    stats.attempts = attempts_;
    stats.accepted = accepted_;
    for (const NetSource &source : sources_) {
        stats.transactions += source.transactions();
    }
    // Every source is in exactly one state in every cycle.
    const std::uint64_t total = now_ * ports_;
    stats.computeFraction = total > 0
        ? static_cast<double>(thinkCycles_) / static_cast<double>(total)
        : 0.0;
    stats.acceptance = attempts_ > 0
        ? static_cast<double>(accepted_) / static_cast<double>(attempts_)
        : 1.0;

    const double port_cycles =
        static_cast<double>(now_) * static_cast<double>(ports_);
    stats.stageLoads.reserve(config_.stages + 1);
    for (unsigned stage = 0; stage < config_.stages; ++stage) {
        stats.stageLoads.push_back(
            static_cast<double>(stageOffered_[stage]) / port_cycles);
    }
    stats.stageLoads.push_back(
        static_cast<double>(accepted_) / port_cycles);
    stats.throughputPerPort =
        static_cast<double>(accepted_) / port_cycles;
    return stats;
}

} // namespace swcc
