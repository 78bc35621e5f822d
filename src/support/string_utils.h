/**
 * @file
 * Small string helpers shared across the library.
 */
#ifndef LPO_SUPPORT_STRING_UTILS_H
#define LPO_SUPPORT_STRING_UTILS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lpo {

/** Strip leading and trailing ASCII whitespace. */
std::string_view trim(std::string_view text);

/** True if @p text begins with @p prefix. */
bool startsWith(std::string_view text, std::string_view prefix);

/** Join @p parts with @p sep. */
std::string join(const std::vector<std::string> &parts,
                 std::string_view sep);

/** 64-bit FNV-1a hash of a byte string. */
uint64_t fnv1a64(std::string_view text);

/** Mix an additional 64-bit value into a running hash (boost-style). */
inline uint64_t
hashCombine(uint64_t seed, uint64_t value)
{
    return seed ^ (value + 0x9e3779b97f4a7c15ull + (seed << 12) + (seed >> 4));
}

/** Format a double with fixed @p decimals digits. */
std::string formatFixed(double value, int decimals);

} // namespace lpo

#endif // LPO_SUPPORT_STRING_UTILS_H
