/**
 * @file
 * Multiprocessor address-trace event format.
 *
 * The validation methodology of the paper consumes interleaved memory
 * references from all processors (the ATUM-2 format); this is our
 * equivalent in-memory representation. Flush events extend the format
 * so that Software-Flush traces can be simulated, which the paper could
 * not do with its hardware-coherent traces.
 */

#ifndef SWCC_SIM_TRACE_TRACE_EVENT_HH
#define SWCC_SIM_TRACE_TRACE_EVENT_HH

#include <cstdint>
#include <cstring>
#include <string_view>

namespace swcc
{

/** Byte address within the simulated physical address space. */
using Addr = std::uint64_t;

/** Processor identifier. */
using CpuId = std::uint16_t;

/** Kind of one trace reference. */
enum class RefType : std::uint8_t
{
    /** Instruction fetch; each fetch is one executed instruction. */
    IFetch,
    /** Data load. */
    Load,
    /** Data store. */
    Store,
    /**
     * Software flush of the block containing the address (invalidate,
     * write back if dirty). Emitted by the compiler/programmer in the
     * Software-Flush scheme; ignored by hardware schemes.
     */
    Flush,
};

/** Human-readable name of a reference type. */
constexpr std::string_view
refTypeName(RefType type)
{
    switch (type) {
      case RefType::IFetch: return "ifetch";
      case RefType::Load:   return "load";
      case RefType::Store:  return "store";
      case RefType::Flush:  return "flush";
    }
    return "unknown";
}

/** True for loads and stores (the references counted by ls). */
constexpr bool
isData(RefType type)
{
    return type == RefType::Load || type == RefType::Store;
}

/**
 * An Addr held as its eight bytes, with no alignment requirement. It
 * converts implicitly from and to Addr, and both conversions copy the
 * bytes with std::memcpy, so no Addr reference to a misaligned address
 * can ever exist (a packed struct would let `const Addr &` bind to its
 * member, which is undefined behaviour).
 */
class UnalignedAddr
{
  public:
    UnalignedAddr(Addr value = 0)
    {
        std::memcpy(bytes_, &value, sizeof value);
    }

    operator Addr() const
    {
        Addr value = 0;
        std::memcpy(&value, bytes_, sizeof value);
        return value;
    }

  private:
    unsigned char bytes_[sizeof(Addr)];
};

/**
 * One interleaved trace record: 12 bytes in memory, so a trace costs a
 * quarter less than with an aligned Addr (the binary file format keeps
 * its 16-byte record; see trace_io.hh).
 */
struct TraceEvent
{
    UnalignedAddr addr = 0;
    CpuId cpu = 0;
    RefType type = RefType::IFetch;

    bool operator==(const TraceEvent &) const = default;
};

static_assert(sizeof(TraceEvent) == 12);
static_assert(alignof(TraceEvent) == 2);

} // namespace swcc

#endif // SWCC_SIM_TRACE_TRACE_EVENT_HH
