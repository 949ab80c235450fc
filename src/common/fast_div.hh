/**
 * @file
 * Divider32: exact division of 32-bit unsigned integers by a divisor
 * fixed at construction, as one 64x64->128-bit multiply instead of a
 * hardware divide. The FTL divides page numbers by pages per block and
 * blocks per chip on every page op, so the divide was a per-page cost.
 *
 * With c = ceil(2^64 / d), n / d == (c * n) >> 64 for every 32-bit n
 * and d >= 2 (Lemire, Kaser and Kurz, "Faster remainder by direct
 * computation", 2019). c does not fit 64 bits for d == 1, which is
 * passed through.
 */

#ifndef AERO_COMMON_FAST_DIV_HH
#define AERO_COMMON_FAST_DIV_HH

#include <cstdint>

#include "common/logging.hh"

namespace aero
{

class Divider32
{
  public:
    explicit Divider32(std::uint32_t d)
        : magic(d > 1 ? ~std::uint64_t{0} / d + 1 : 0)
    {
        AERO_CHECK(d != 0, "division by zero");
    }

    std::uint32_t
    div(std::uint32_t n) const
    {
        if (magic == 0)
            return n;
        return static_cast<std::uint32_t>(
            (static_cast<unsigned __int128>(magic) * n) >> 64);
    }

    bool operator==(const Divider32 &) const = default;

  private:
    std::uint64_t magic;  //!< ceil(2^64 / d); 0 for d == 1
};

} // namespace aero

#endif // AERO_COMMON_FAST_DIV_HH
