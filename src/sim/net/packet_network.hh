/**
 * @file
 * Cycle-level simulator of a *buffered packet-switched* omega network —
 * the alternative network discipline of the paper's conclusion ("Use
 * of packet-switching would be more favorable to No-Cache"), built to
 * validate the Kruskal-Snir analytical model in
 * core/packet_network_model.hh.
 *
 * Two mirrored n-stage omega fabrics connect 2^n processors to 2^n
 * memory modules: requests route by memory id, responses by processor
 * id. Every switch output port is an output queue serving one word
 * per cycle (unbounded buffers). A memory transaction injects a
 * request train of req words; after the full train arrives the module
 * waits memoryCycles and injects a response train of resp words; the
 * processor blocks until the last response word returns (or, for
 * posted transactions with resp = 0, only for the injection).
 */

#ifndef SWCC_SIM_NET_PACKET_NETWORK_HH
#define SWCC_SIM_NET_PACKET_NETWORK_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/synth/rng.hh"

namespace swcc
{

/** Configuration of one packet-network simulation. */
struct PacketNetConfig
{
    /** Switch stages n; 2^n processors and memory modules. */
    unsigned stages = 4;
    /** Mean computing cycles between transactions. */
    double meanThink = 20.0;
    /** Words per request train (>= 1). */
    unsigned requestWords = 1;
    /** Words per response train (0 = posted transaction). */
    unsigned responseWords = 4;
    /** Memory access latency between trains. */
    unsigned memoryCycles = 2;
    /**
     * Per-port buffer capacity in words (0 = unbounded). With finite
     * buffers a full downstream queue exerts backpressure: the word
     * stays put and its link idles that cycle.
     */
    unsigned bufferWords = 0;
    std::uint64_t seed = 1;

    void validate() const;
};

/**
 * Aggregate results of a packet-network simulation: the whole
 * simulation so far, over every run() call.
 */
struct PacketNetStats
{
    /** Cycles simulated, over every run() call. */
    std::uint64_t cycles = 0;
    std::uint64_t transactions = 0;
    /** Fraction of source cycles spent computing. */
    double computeFraction = 0.0;
    /** Mean cycles from first request word to transaction complete. */
    double meanLatency = 0.0;
    /** Mean occupancy of the busiest direction's links (load p). */
    double linkLoad = 0.0;
    /** Largest queue length observed anywhere (buffer sizing). */
    std::size_t maxQueueDepth = 0;
    /** Cycles a word stalled because a buffer downstream was full. */
    std::uint64_t backpressureStalls = 0;
};

/**
 * The buffered packet-switched network plus its sources and memories.
 *
 * A cycle costs the non-empty queues, the busy memories, the injecting
 * sources and the think timers that fire, not the port count. Its
 * order, which fixes the RNG draw order, is: the forward fabric, then
 * the backward one (each from the last stage to the first, ports
 * ascending; responses complete here), then the memories, then the
 * sources by ascending id.
 */
class PacketOmegaNetwork
{
  public:
    explicit PacketOmegaNetwork(const PacketNetConfig &config);

    /**
     * Runs @p cycles more network cycles and returns the statistics of
     * the whole simulation so far: run(a) then run(b) returns what a
     * fresh network's run(a + b) returns.
     */
    PacketNetStats run(std::uint64_t cycles);

    std::uint32_t ports() const { return ports_; }

  private:
    /** FIFO with power-of-two capacity, grown when full. */
    template <typename T>
    class Ring
    {
      public:
        bool empty() const { return size_ == 0; }
        std::size_t size() const { return size_; }
        const T &front() const { return items_[head_]; }

        void
        pop()
        {
            head_ = (head_ + 1) & (capacity_ - 1);
            --size_;
        }

        void
        push(const T &item)
        {
            if (size_ == capacity_) {
                grow();
            }
            items_[(head_ + size_) & (capacity_ - 1)] = item;
            ++size_;
        }

      private:
        void
        grow()
        {
            const std::uint32_t capacity =
                capacity_ == 0 ? 4 : 2 * capacity_;
            auto items = std::make_unique<T[]>(capacity);
            for (std::uint32_t i = 0; i < size_; ++i) {
                items[i] = items_[(head_ + i) & (capacity_ - 1)];
            }
            items_ = std::move(items);
            capacity_ = capacity;
            head_ = 0;
        }

        std::unique_ptr<T[]> items_;
        std::uint32_t head_ = 0;
        std::uint32_t size_ = 0;
        std::uint32_t capacity_ = 0;
    };

    /** One word in flight. */
    struct Word
    {
        /** Routing target (memory id forward, processor id back). */
        std::uint16_t target = 0;
        /** Originating port (to attribute delivery). */
        std::uint16_t source = 0;
        /** True if this is the last word of its train. */
        bool last = false;
    };

    /**
     * One direction's fabric: per-stage, per-port output queues,
     * [stage * ports + port], and a bitmap per stage of the non-empty
     * ones.
     */
    struct Fabric
    {
        std::vector<Ring<Word>> queues;
        std::vector<std::uint64_t> occupied;
    };

    /** A processor-side source. */
    struct Source
    {
        enum class State : std::uint8_t
        {
            Thinking,
            Injecting,
            WaitingResponse,
        };
        State state = State::Thinking;
        std::uint16_t dest = 0;
        unsigned wordsToInject = 0;
        unsigned responseWordsLeft = 0;
        std::uint64_t transactionStart = 0;
        std::uint64_t transactions = 0;
        double latencySum = 0.0;
    };

    /** A reply a memory owes: (ready cycle, requester). */
    struct Reply
    {
        std::uint64_t ready = 0;
        std::uint16_t requester = 0;
    };

    /** A memory module assembling trains and replying. */
    struct Memory
    {
        Ring<Reply> pending;
        /** Words left to inject of the active response. */
        unsigned injectLeft = 0;
        std::uint16_t injectTarget = 0;
    };

    void stepCycle();
    void advanceFabric(Fabric &fabric, bool toward_memory);
    void serveMemories();
    void serveSources();
    /** Injects @p word at @p input into @p fabric's first stage, or
     *  stalls; true if it went in. */
    bool inject(Fabric &fabric, std::uint32_t input, const Word &word);
    /** Appends @p word to queue @p port of @p stage. */
    void push(Fabric &fabric, unsigned stage, std::uint32_t port,
              const Word &word);
    /** True if @p queue can accept one more word. */
    bool hasRoom(const Ring<Word> &queue) const;
    void deliver(const Word &word, bool toward_memory);
    std::uint32_t entryPort(std::uint32_t input, std::uint32_t target,
                            unsigned stage) const;
    /** Starts @p source thinking for @p think cycles; it ticks first
     *  in cycle @p first_tick. */
    void beginThink(std::uint32_t source, std::uint64_t think,
                    std::uint64_t first_tick);
    /** Draws a think time after a completed transaction. */
    std::uint64_t drawThink();

    PacketNetConfig config_;
    std::uint32_t ports_;
    /** 64-bit words per stage bitmap. */
    std::uint32_t bitmapWords_;
    Rng rng_;
    Fabric forward_;
    Fabric backward_;
    std::vector<Source> sources_;
    std::vector<Memory> memories_;
    /** Memories with a pending or active response. */
    std::vector<std::uint64_t> busyMemories_;
    /** Injecting sources, ascending. */
    std::vector<std::uint32_t> injecting_;
    std::vector<std::uint32_t> nextInjecting_;
    /** Min-heap of (expiry cycle << 16) | source over every Thinking
     *  source. */
    std::vector<std::uint64_t> calendar_;
    /** Current cycle; cycles simulated so far. */
    std::uint64_t now_ = 0;
    /** Sources counted as Thinking in this cycle's source phase. */
    std::uint64_t thinking_ = 0;
    std::uint64_t thinkCycles_ = 0;
    std::uint64_t wordCyclesForward_ = 0;
    std::uint64_t wordCyclesBackward_ = 0;
    std::size_t maxQueueDepth_ = 0;
    std::uint64_t backpressureStalls_ = 0;
};

} // namespace swcc

#endif // SWCC_SIM_NET_PACKET_NETWORK_HH
