/**
 * @file
 * Structured leveled logger.
 *
 * A tiny stderr logger shared by every layer: parse rejects, silent
 * fallbacks, and diagnostic chatter all flow through one levelled
 * sink instead of being dropped or buried in exception text. The
 * macros capture the call site (file:line), evaluate their message
 * expression only when the level is enabled, and cost a single
 * relaxed atomic load otherwise — cheap enough for cold and warm
 * paths alike (the simulator's per-retire hot loop uses the span /
 * metrics macros, never the logger).
 *
 * The level is taken from, in priority order, setLogLevel() (the
 * CLI's `--log-level`), the SWCC_LOG_LEVEL environment variable, and
 * the default (warn).
 */

#ifndef SWCC_CORE_OBS_LOG_HH
#define SWCC_CORE_OBS_LOG_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

namespace swcc::obs
{

/** Log severity, ordered least to most severe. */
enum class LogLevel : int
{
    Trace = 0,
    Debug = 1,
    Info = 2,
    Warn = 3,
    Error = 4,
    Off = 5,
};

/** Lower-case level name ("warn"); "off" for LogLevel::Off. */
std::string_view logLevelName(LogLevel level);

/** Parses "trace".."error"/"off" (case-sensitive); nullopt otherwise. */
std::optional<LogLevel> parseLogLevel(std::string_view name);

/** The currently active level (messages below it are discarded). */
LogLevel logLevel();

/** Overrides the active level (wins over SWCC_LOG_LEVEL). */
void setLogLevel(LogLevel level);

/** True if a message at @p level would currently be emitted. */
bool logEnabled(LogLevel level);

/**
 * Redirects log output (default and nullptr: stderr). The stream must
 * outlive all logging; intended for tests capturing into a
 * stringstream.
 */
void setLogSink(std::ostream *sink);

/**
 * Emits one line: `[level] file:line: message`. @p file is trimmed to
 * its basename. Thread-safe (one line is written atomically).
 * Prefer the SWCC_LOG_* macros, which check the level first.
 */
void logMessage(LogLevel level, const char *file, int line,
                const std::string &message);

} // namespace swcc::obs

/** Logs @p msg (a std::string expression, evaluated lazily). */
#define SWCC_LOG_AT(level, msg)                                         \
    do {                                                                \
        if (::swcc::obs::logEnabled(level)) {                           \
            ::swcc::obs::logMessage((level), __FILE__, __LINE__,        \
                                    (msg));                             \
        }                                                               \
    } while (0)

#define SWCC_LOG_DEBUG(msg) SWCC_LOG_AT(::swcc::obs::LogLevel::Debug, msg)
#define SWCC_LOG_INFO(msg) SWCC_LOG_AT(::swcc::obs::LogLevel::Info, msg)
#define SWCC_LOG_WARN(msg) SWCC_LOG_AT(::swcc::obs::LogLevel::Warn, msg)
#define SWCC_LOG_ERROR(msg) SWCC_LOG_AT(::swcc::obs::LogLevel::Error, msg)

#endif // SWCC_CORE_OBS_LOG_HH
