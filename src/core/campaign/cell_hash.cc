#include "core/campaign/cell_hash.hh"

#include "core/workload.hh"

namespace swcc::campaign
{

namespace
{

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ull;

/**
 * A byte that cannot appear inside a field's encoding (fields are
 * either UTF-8 text or fixed-width little-endian words preceded by a
 * tag), so ("ab","c") never collides with ("a","bc").
 */
constexpr unsigned char kSeparator = 0xff;

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

CellKey::CellKey(std::string_view domain) : hash_(kFnvOffset)
{
    add(domain);
}

void
CellKey::mixBytes(const void *data, std::size_t size)
{
    hash_ = fnv1a64(data, size, hash_);
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
        // getParam reads 1/apl, and two apl values can share one
        // reciprocal; apl's own bits key them apart.
        add(id == ParamId::InvApl ? params.apl : getParam(params, id));
    }
    return *this;
}

} // namespace swcc::campaign
