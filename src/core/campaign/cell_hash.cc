#include "core/campaign/cell_hash.hh"

#include <cmath>
#include <cstring>

#include "core/cost_model.hh"
#include "core/workload.hh"

namespace swcc::campaign
{

namespace
{

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ull;
/** Seed of key()'s high half: the offset basis, words swapped. */
constexpr std::uint64_t kFnvOffsetHi = 0x84222325cbf29ce4ull;

/**
 * A byte that cannot appear inside a field's encoding (fields are
 * either UTF-8 text or fixed-width little-endian words preceded by a
 * tag), so ("ab","c") never collides with ("a","bc").
 */
constexpr unsigned char kSeparator = 0xff;

/** One canonical bit pattern per double value (see header). */
std::uint64_t
canonicalBits(double value)
{
    if (std::isnan(value)) {
        return 0x7ff8000000000000ull; // Quiet NaN, zero payload.
    }
    if (value == 0.0) {
        value = 0.0; // Collapse -0.0.
    }
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

} // namespace

std::uint64_t
fnv1a64(const void *data, std::size_t size, std::uint64_t seed)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= kFnvPrime;
    }
    return hash;
}

CellKey::CellKey(std::string_view domain)
    : lo_(kFnvOffset), hi_(kFnvOffsetHi)
{
    add(domain);
}

void
CellKey::mixBytes(const void *data, std::size_t size)
{
    lo_ = fnv1a64(data, size, lo_);
    hi_ = fnv1a64(data, size, hi_);
}

void
CellKey::mixWord(unsigned char tag, std::uint64_t word)
{
    unsigned char bytes[10];
    bytes[0] = tag;
    for (int i = 0; i < 8; ++i) {
        bytes[1 + i] =
            static_cast<unsigned char>((word >> (8 * i)) & 0xffu);
    }
    bytes[9] = kSeparator;
    mixBytes(bytes, sizeof bytes);
}

CellKey &
CellKey::add(std::string_view field)
{
    const unsigned char tag = 's';
    mixBytes(&tag, 1);
    mixBytes(field.data(), field.size());
    mixBytes(&kSeparator, 1);
    return *this;
}

CellKey &
CellKey::add(double value)
{
    mixWord('d', canonicalBits(value));
    return *this;
}

CellKey &
CellKey::add(std::uint64_t value)
{
    mixWord('u', value);
    return *this;
}

CellKey &
CellKey::add(const WorkloadParams &params)
{
    for (ParamId id : kAllParams) {
        add(getParam(params, id));
    }
    return *this;
}

CellKey &
CellKey::add(const CostModel &costs)
{
    for (Operation op : kAllOperations) {
        if (!costs.supports(op)) {
            add(std::uint64_t{0});
            continue;
        }
        const OpCost cost = costs.cost(op);
        add(std::uint64_t{1}).add(cost.cpu).add(cost.channel);
    }
    return *this;
}

} // namespace swcc::campaign
