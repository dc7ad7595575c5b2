/**
 * @file
 * Common types for the Owicki-Agarwal software cache coherence model.
 *
 * The library models the four cache-coherence schemes compared in
 * "Evaluating the Performance of Software Cache Coherence" (Owicki &
 * Agarwal, ASPLOS 1989): a coherence-free upper bound (Base), two
 * software schemes (No-Cache and Software-Flush), and the Dragon snoopy
 * hardware protocol.
 */

#ifndef SWCC_CORE_TYPES_HH
#define SWCC_CORE_TYPES_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>

namespace swcc
{

/**
 * Cache-coherence scheme evaluated by the model.
 *
 * The first four enumerators match the four workload models of the
 * paper's Section 2.2 (Tables 3-6); the remainder extend the snoopy
 * hardware family with the invalidate-based protocols (MESI, MESIF,
 * MOESI) and an adaptive update/invalidate hybrid, each with its own
 * frequency table and simulator protocol.
 */
enum class Scheme : std::uint8_t
{
    /** No coherence actions at all; performance upper bound (Table 3). */
    Base,
    /** Shared data is uncacheable; read/write-through to memory (Table 4). */
    NoCache,
    /** Shared data cached but explicitly flushed by software (Table 5). */
    SoftwareFlush,
    /** Dragon write-broadcast snoopy hardware protocol (Table 6). */
    Dragon,
    /** Illinois/MESI write-invalidate snoopy protocol. */
    Mesi,
    /** MESI plus a clean-forwarder (F) state supplying shared misses. */
    Mesif,
    /** MESI plus an Owned state deferring dirty write-backs. */
    Moesi,
    /** Adaptive per-block update/invalidate hybrid (Dragon vs MESI). */
    Hybrid,
};

/** Number of schemes in @ref Scheme. */
inline constexpr std::size_t kNumSchemes = 8;

/** Number of schemes evaluated by the paper itself. */
inline constexpr std::size_t kNumPaperSchemes = 4;

/** All schemes, paper order first, then the extension family. */
inline constexpr std::array<Scheme, kNumSchemes> kAllSchemes = {
    Scheme::Base,  Scheme::NoCache, Scheme::SoftwareFlush, Scheme::Dragon,
    Scheme::Mesi,  Scheme::Mesif,   Scheme::Moesi,         Scheme::Hybrid,
};

/**
 * The paper's four schemes, in paper order — for call sites that
 * reproduce a paper artifact exactly (e.g. the Table 8 sensitivity
 * columns) and must not grow with the extension family.
 */
inline constexpr std::array<Scheme, kNumPaperSchemes> kPaperSchemes = {
    Scheme::Base, Scheme::NoCache, Scheme::SoftwareFlush, Scheme::Dragon,
};

/**
 * Human-readable name of a scheme.
 *
 * @param scheme The scheme to name.
 * @return A static, null-terminated name such as "Software-Flush".
 */
constexpr std::string_view
schemeName(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Base:          return "Base";
      case Scheme::NoCache:       return "No-Cache";
      case Scheme::SoftwareFlush: return "Software-Flush";
      case Scheme::Dragon:        return "Dragon";
      case Scheme::Mesi:          return "MESI";
      case Scheme::Mesif:         return "MESIF";
      case Scheme::Moesi:         return "MOESI";
      case Scheme::Hybrid:        return "Adaptive-Hybrid";
    }
    return "unknown";
}

/** True if @p a and @p b are equal up to the case of ASCII letters. */
constexpr bool
equalsIgnoringCase(std::string_view a, std::string_view b)
{
    const auto lower = [](char c) {
        return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
    };
    return std::ranges::equal(a, b, {}, lower, lower);
}

/**
 * Parses a scheme name in any case: a schemeName(), or one of the
 * aliases nocache, softwareflush, sw-flush, swflush, flush and hybrid.
 * swcc, proto_check and swccd's JSON requests all parse with this.
 *
 * @return The scheme, or std::nullopt for any other name.
 */
constexpr std::optional<Scheme>
parseScheme(std::string_view name)
{
    constexpr std::pair<std::string_view, Scheme> kAliases[] = {
        {"nocache", Scheme::NoCache},
        {"softwareflush", Scheme::SoftwareFlush},
        {"sw-flush", Scheme::SoftwareFlush},
        {"swflush", Scheme::SoftwareFlush},
        {"flush", Scheme::SoftwareFlush},
        {"hybrid", Scheme::Hybrid},
    };
    for (Scheme scheme : kAllSchemes) {
        if (equalsIgnoringCase(name, schemeName(scheme))) {
            return scheme;
        }
    }
    for (const auto &[alias, scheme] : kAliases) {
        if (equalsIgnoringCase(name, alias)) {
            return scheme;
        }
    }
    return std::nullopt;
}

/**
 * True if the scheme can run on a multistage interconnection network.
 *
 * Snoopy protocols require a broadcast medium (a bus); the software
 * schemes and Base work with any processor-memory interconnect, which is
 * the central scalability argument of the paper's Section 6.
 */
constexpr bool
schemeWorksOnNetwork(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Dragon:
      case Scheme::Mesi:
      case Scheme::Mesif:
      case Scheme::Moesi:
      case Scheme::Hybrid:
        return false;
      case Scheme::Base:
      case Scheme::NoCache:
      case Scheme::SoftwareFlush:
        return true;
    }
    return false;
}

/** Cycle counts are modelled as real numbers (expected values). */
using Cycles = double;

} // namespace swcc

#endif // SWCC_CORE_TYPES_HH
