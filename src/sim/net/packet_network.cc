#include "sim/net/packet_network.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace swcc
{

void
PacketNetConfig::validate() const
{
    if (stages == 0 || stages > 14) {
        throw std::invalid_argument("stages must be in [1, 14]");
    }
    if (!std::isfinite(meanThink) || meanThink < 0.0) {
        throw std::invalid_argument("meanThink must be finite and >= 0");
    }
    if (requestWords == 0) {
        throw std::invalid_argument(
            "a transaction needs at least one request word");
    }
}

PacketOmegaNetwork::PacketOmegaNetwork(const PacketNetConfig &config)
    : config_(config), ports_(1u << config.stages),
      bitmapWords_((ports_ + 63) / 64), rng_(config.seed)
{
    config_.validate();
    for (Fabric *fabric : {&forward_, &backward_}) {
        fabric->queues.resize(std::size_t{config_.stages} * ports_);
        fabric->occupied.assign(
            std::size_t{config_.stages} * bitmapWords_, 0);
    }
    sources_.resize(ports_);
    memories_.resize(ports_);
    busyMemories_.assign(bitmapWords_, 0);
    calendar_.reserve(ports_);
    // Desynchronise initial thinking.
    for (std::uint32_t id = 0; id < ports_; ++id) {
        beginThink(id,
                   rng_.below(static_cast<std::uint64_t>(
                                  std::max(1.0, config_.meanThink)) + 1),
                   0);
    }
}

std::uint32_t
PacketOmegaNetwork::entryPort(std::uint32_t input, std::uint32_t target,
                              unsigned stage) const
{
    const unsigned n = config_.stages;
    const std::uint32_t mask = ports_ - 1;
    const std::uint32_t shuffled = n == 1
        ? input
        : ((input << 1) | (input >> (n - 1))) & mask;
    const std::uint32_t out_bit = (target >> (n - 1 - stage)) & 1u;
    return (shuffled & ~1u) | out_bit;
}

std::uint64_t
PacketOmegaNetwork::drawThink()
{
    return config_.meanThink <= 0.0
        ? 0
        : rng_.geometric(std::min(1.0, 1.0 / config_.meanThink));
}

void
PacketOmegaNetwork::beginThink(std::uint32_t source, std::uint64_t think,
                               std::uint64_t first_tick)
{
    sources_[source].state = Source::State::Thinking;
    ++thinking_;
    // Each think tick takes one cycle off the think and ends it once
    // none is left, so even a zero-cycle think takes one tick.
    const std::uint64_t ticks = std::max<std::uint64_t>(think, 1);
    calendar_.push_back(((first_tick + ticks - 1) << 16) | source);
    std::push_heap(calendar_.begin(), calendar_.end(), std::greater<>());
}

void
PacketOmegaNetwork::deliver(const Word &word, bool toward_memory)
{
    if (toward_memory) {
        // A train's words share one FIFO path, so its last word
        // arrives after all the others.
        if (word.last && config_.responseWords > 0) {
            memories_[word.target].pending.push(
                {now_ + config_.memoryCycles, word.source});
            busyMemories_[word.target / 64] |= 1ull << (word.target % 64);
        }
        return;
    }

    Source &source = sources_[word.target];
    if (source.state != Source::State::WaitingResponse ||
        source.responseWordsLeft == 0) {
        throw std::logic_error("response delivered to an idle source");
    }
    if (--source.responseWordsLeft == 0) {
        ++source.transactions;
        source.latencySum +=
            static_cast<double>(now_ + 1 - source.transactionStart);
        // The source phase runs after delivery, so the source thinks
        // from this cycle.
        beginThink(word.target, drawThink(), now_);
    }
}

bool
PacketOmegaNetwork::hasRoom(const Ring<Word> &queue) const
{
    return config_.bufferWords == 0 ||
        queue.size() < config_.bufferWords;
}

void
PacketOmegaNetwork::push(Fabric &fabric, unsigned stage,
                         std::uint32_t port, const Word &word)
{
    Ring<Word> &queue = fabric.queues[std::size_t{stage} * ports_ + port];
    queue.push(word);
    fabric.occupied[std::size_t{stage} * bitmapWords_ + port / 64] |=
        1ull << (port % 64);
    maxQueueDepth_ = std::max(maxQueueDepth_, queue.size());
}

bool
PacketOmegaNetwork::inject(Fabric &fabric, std::uint32_t input,
                           const Word &word)
{
    const std::uint32_t port = entryPort(input, word.target, 0);
    if (!hasRoom(fabric.queues[port])) {
        // Entry link busy: retry next cycle.
        ++backpressureStalls_;
        return false;
    }
    push(fabric, 0, port, word);
    return true;
}

void
PacketOmegaNetwork::advanceFabric(Fabric &fabric, bool toward_memory)
{
    const unsigned n = config_.stages;
    std::uint64_t &word_cycles =
        toward_memory ? wordCyclesForward_ : wordCyclesBackward_;
    // Serve the last stage first so a word advances one stage per
    // cycle; each output link forwards one word per cycle. With the
    // last stage served first, a full queue that drains this cycle can
    // accept this cycle's arrival, like a real flow-controlled link.
    // Only non-empty queues are visited, ports ascending.
    for (unsigned stage = n; stage-- > 0;) {
        std::uint64_t *occupied =
            &fabric.occupied[std::size_t{stage} * bitmapWords_];
        Ring<Word> *row = &fabric.queues[std::size_t{stage} * ports_];
        for (std::uint32_t w = 0; w < bitmapWords_; ++w) {
            for (std::uint64_t bits = occupied[w]; bits != 0;
                 bits &= bits - 1) {
                const auto bit =
                    static_cast<unsigned>(std::countr_zero(bits));
                const std::uint32_t port = w * 64 + bit;
                Ring<Word> &queue = row[port];
                const Word word = queue.front();
                if (stage + 1 < n) {
                    const std::uint32_t next =
                        entryPort(port, word.target, stage + 1);
                    if (!hasRoom(fabric.queues[std::size_t{stage + 1} *
                                                   ports_ + next])) {
                        ++backpressureStalls_;
                        continue;
                    }
                    push(fabric, stage + 1, next, word);
                }
                queue.pop();
                if (queue.empty()) {
                    occupied[w] &= ~(1ull << bit);
                }
                ++word_cycles;
                if (stage + 1 == n) {
                    deliver(word, toward_memory);
                }
            }
        }
    }
}

void
PacketOmegaNetwork::serveMemories()
{
    // Memory modules inject at most one response word per cycle.
    for (std::uint32_t w = 0; w < bitmapWords_; ++w) {
        for (std::uint64_t bits = busyMemories_[w]; bits != 0;
             bits &= bits - 1) {
            const auto bit = static_cast<unsigned>(std::countr_zero(bits));
            const std::uint32_t id = w * 64 + bit;
            Memory &memory = memories_[id];
            if (memory.injectLeft == 0 &&
                memory.pending.front().ready <= now_) {
                memory.injectTarget = memory.pending.front().requester;
                memory.pending.pop();
                memory.injectLeft = config_.responseWords;
            }
            if (memory.injectLeft > 0) {
                Word word;
                word.target = memory.injectTarget;
                word.source = static_cast<std::uint16_t>(id);
                word.last = memory.injectLeft == 1;
                if (inject(backward_, id, word)) {
                    --memory.injectLeft;
                }
            }
            if (memory.injectLeft == 0 && memory.pending.empty()) {
                busyMemories_[w] &= ~(1ull << bit);
            }
        }
    }
}

void
PacketOmegaNetwork::serveSources()
{
    // Every source is counted Thinking or blocked each cycle; only the
    // thinking ones are tallied.
    thinkCycles_ += thinking_;

    // Injecting sources and the think timers that fire this cycle, in
    // one pass by ascending id. Waiting sources cost nothing.
    // An id of ports_ means none is left.
    nextInjecting_.clear();
    auto injecting = injecting_.begin();
    for (;;) {
        const std::uint32_t timer =
            !calendar_.empty() && (calendar_.front() >> 16) == now_
            ? static_cast<std::uint32_t>(calendar_.front() & 0xffff)
            : ports_;
        const std::uint32_t id =
            injecting != injecting_.end() ? *injecting : ports_;
        if (timer == ports_ && id == ports_) {
            break;
        }
        if (timer < id) {
            // The think ends: start a transaction, injecting from the
            // next cycle.
            std::pop_heap(calendar_.begin(), calendar_.end(),
                          std::greater<>());
            calendar_.pop_back();
            --thinking_;
            Source &source = sources_[timer];
            source.state = Source::State::Injecting;
            source.dest = static_cast<std::uint16_t>(rng_.below(ports_));
            source.wordsToInject = config_.requestWords;
            source.responseWordsLeft = config_.responseWords;
            source.transactionStart = now_ + 1;
            nextInjecting_.push_back(timer);
            continue;
        }

        ++injecting;
        Source &source = sources_[id];
        Word word;
        word.target = source.dest;
        word.source = static_cast<std::uint16_t>(id);
        word.last = source.wordsToInject == 1;
        if (!inject(forward_, id, word) || --source.wordsToInject > 0) {
            nextInjecting_.push_back(id);
        } else if (config_.responseWords > 0) {
            source.state = Source::State::WaitingResponse;
        } else {
            // Posted transaction: done once injected.
            ++source.transactions;
            source.latencySum +=
                static_cast<double>(now_ + 1 - source.transactionStart);
            beginThink(id, drawThink(), now_ + 1);
        }
    }
    injecting_.swap(nextInjecting_);
}

void
PacketOmegaNetwork::stepCycle()
{
    advanceFabric(forward_, true);
    advanceFabric(backward_, false);
    serveMemories();
    serveSources();
    ++now_;
}

PacketNetStats
PacketOmegaNetwork::run(std::uint64_t cycles)
{
    for (std::uint64_t c = 0; c < cycles; ++c) {
        stepCycle();
    }

    PacketNetStats stats;
    stats.cycles = now_;
    double latency = 0.0;
    for (const Source &source : sources_) {
        stats.transactions += source.transactions;
        latency += source.latencySum;
    }
    // Every source is in exactly one state in every cycle.
    const std::uint64_t total = now_ * ports_;
    stats.computeFraction = total > 0
        ? static_cast<double>(thinkCycles_) / static_cast<double>(total)
        : 0.0;
    stats.meanLatency = stats.transactions > 0
        ? latency / static_cast<double>(stats.transactions)
        : 0.0;

    const double link_cycles = static_cast<double>(now_) *
        static_cast<double>(ports_) * config_.stages;
    stats.linkLoad = std::max(
        static_cast<double>(wordCyclesForward_),
        static_cast<double>(wordCyclesBackward_)) / link_cycles;
    stats.maxQueueDepth = maxQueueDepth_;
    stats.backpressureStalls = backpressureStalls_;
    return stats;
}

} // namespace swcc
