/**
 * @file
 * Open-addressing hash map for integer keys.
 *
 * One contiguous slot array, power-of-two sized, probed linearly from a
 * Fibonacci-hashed home slot (the sim/predicted_set.h idiom). A slot
 * carries its own occupancy flag, so every key value — 0 and ~0
 * included — is storable; there is no sentinel key. The table doubles
 * once it is half full, so probe chains stay short, and nothing is
 * allocated until the first insert: an empty map costs one vector.
 *
 * Only insert and lookup exist so far; erase (backward-shift deletion,
 * as in PredictedSet) lands with its first user.
 */

#ifndef CSP_CORE_FLAT_MAP_H
#define CSP_CORE_FLAT_MAP_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace csp {

/** Map from an unsigned integer key to a small value; see file comment. */
template <typename K, typename V>
class FlatMap
{
    static_assert(std::is_unsigned_v<K> && sizeof(K) <= 8,
                  "FlatMap keys are unsigned integers");

  public:
    /**
     * Insert (@p key, @p value) unless @p key is present. Returns the
     * mapped value — the existing one when the key was present — and
     * whether this call inserted it. The pointer is valid until the
     * next insert.
     */
    std::pair<V *, bool>
    tryEmplace(K key, V value)
    {
        if (2 * (size_ + 1) > slots_.size())
            grow();
        std::size_t i = home(key);
        while (slots_[i].used) {
            if (slots_[i].key == key)
                return {&slots_[i].value, false};
            i = (i + 1) & mask_;
        }
        slots_[i] = Slot{key, std::move(value), true};
        ++size_;
        return {&slots_[i].value, true};
    }

    /** The value mapped to @p key, or nullptr when absent. */
    const V *
    find(K key) const
    {
        if (size_ == 0)
            return nullptr;
        std::size_t i = home(key);
        while (slots_[i].used) {
            if (slots_[i].key == key)
                return &slots_[i].value;
            i = (i + 1) & mask_;
        }
        return nullptr;
    }

    std::size_t size() const { return size_; }

    /** Slots allocated (a power of two, or 0 before the first insert). */
    std::size_t capacity() const { return slots_.size(); }

  private:
    struct Slot
    {
        K key{};
        V value{};
        bool used = false;
    };

    static constexpr std::size_t kMinSlots = 16;

    std::size_t
    home(K key) const
    {
        // Fibonacci hash: the top log2(capacity) bits of the product.
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ull) >>
            shift_);
    }

    /** Double the table (or allocate the first one) and reinsert. */
    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        const std::size_t n = old.empty() ? kMinSlots : 2 * old.size();
        slots_.assign(n, Slot{});
        mask_ = n - 1;
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
        for (Slot &slot : old) {
            if (!slot.used)
                continue;
            std::size_t i = home(slot.key);
            while (slots_[i].used)
                i = (i + 1) & mask_;
            slots_[i] = std::move(slot);
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
};

} // namespace csp

#endif // CSP_CORE_FLAT_MAP_H
