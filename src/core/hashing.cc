#include "core/hashing.h"

namespace csp {

std::uint64_t
fnv1aResume(std::uint64_t state, std::span<const std::uint8_t> bytes)
{
    for (std::uint8_t byte : bytes)
        state = fnv1aStep(state, byte);
    return state;
}

std::uint64_t
fnv1a(std::span<const std::uint8_t> bytes)
{
    return fnv1aResume(kFnv1aBasis, bytes);
}

} // namespace csp
