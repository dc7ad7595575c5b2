#include "sim/cache/cache.hh"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace swcc
{

Cache::Cache(const CacheConfig &config)
    : config_(config)
{
    config_.validate();
    lines_.resize(config_.numLines());
    blockMask_ = ~static_cast<Addr>(config_.blockBytes - 1);
    blockShift_ = config_.blockShift();
    setMask_ = config_.setMask();
    assoc_ = config_.associativity;
}

void
Cache::touch(CacheLine &line)
{
    if (useCounter_ == std::numeric_limits<std::uint32_t>::max()) {
        throw std::overflow_error(
            "cache LRU stamps exhausted: more than 2^32 - 1 touches");
    }
    line.lastUse = ++useCounter_;
}

CacheLine &
Cache::victimFor(Addr addr)
{
    CacheLine *set = &lines_[setBase(addr)];
    CacheLine *victim = set;
    for (std::size_t way = 0; way < assoc_; ++way) {
        CacheLine &line = set[way];
        if (line.blockAddr == CacheLine::kInvalidTag) {
            return line;
        }
        if (line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }
    return *victim;
}

void
Cache::fill(CacheLine &victim, Addr addr, LineState state)
{
    victim.blockAddr = addr & blockMask_;
    victim.state = state;
    touch(victim);
}

void
Cache::invalidate(CacheLine &line)
{
    line.blockAddr = CacheLine::kInvalidTag;
    line.state = LineState::Invalid;
}

std::size_t
Cache::validLines() const
{
    return static_cast<std::size_t>(std::count_if(
        lines_.begin(), lines_.end(),
        [](const CacheLine &line) { return isValidState(line.state); }));
}

} // namespace swcc
