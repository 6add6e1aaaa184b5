/**
 * @file
 * Strict env-var parsers: every SE_* knob either parses completely or
 * the run refuses to start. The old atoi/atof plumbing silently
 * mapped typos to 0 — SE_THREADS=four used to select the legacy
 * serial path instead of failing, which is the worst possible way to
 * "honor" a perf knob.
 */

#ifndef SE_BASE_ENV_HH
#define SE_BASE_ENV_HH

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace se {

/** `value` of knob `name` as a whole integer; throws on anything else. */
inline long long
envInt(const char *name, const char *value)
{
    char *end = nullptr;
    errno = 0;
    const long long out = std::strtoll(value, &end, 10);
    if (end == value || *end != '\0' || errno == ERANGE)
        throw std::invalid_argument(std::string(name) +
                                    " must be an integer, got '" +
                                    value + "'");
    return out;
}

/** `value` of knob `name` as a finite number; throws on anything else. */
inline double
envDouble(const char *name, const char *value)
{
    char *end = nullptr;
    errno = 0;
    const double out = std::strtod(value, &end);
    if (end == value || *end != '\0' || errno == ERANGE ||
        !std::isfinite(out))
        throw std::invalid_argument(std::string(name) +
                                    " must be a finite number, got '" +
                                    value + "'");
    return out;
}

} // namespace se

#endif // SE_BASE_ENV_HH
