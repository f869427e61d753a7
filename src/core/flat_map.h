/**
 * @file
 * Open-addressing hash map: the one probe-and-erase table in src/.
 *
 * One contiguous slot array, power-of-two sized, probed linearly from a
 * Fibonacci-hashed home slot. A slot carries its own occupancy flag, so
 * every key value — 0 and ~0 included — is storable; there is no
 * sentinel key. The table doubles once it is half full, so probe chains
 * stay short, and nothing is allocated until the first insert: an empty
 * map costs one vector. Erase is backward-shift deletion: the entries
 * after the hole move back into it unless that would put them before
 * their home slot, so there are no tombstones and probe lengths never
 * degrade under churn. The table never shrinks: clear() keeps its
 * slots, and reserve() sizes it up front, which lets a map whose
 * lookups mostly miss stay well under half load.
 *
 * Keys are unsigned integers (their own hash) or, given a @p Hash that
 * maps them to 64 bits, any trivially copyable type with ==. Values are
 * trivially copyable too, because erase and growth move them slot to
 * slot: a value that owns memory lives in a dense vector the map
 * indexes.
 */

#ifndef CSP_CORE_FLAT_MAP_H
#define CSP_CORE_FLAT_MAP_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace csp {

/** The default FlatMap hash: an unsigned integer key is its own hash
 *  (the table's Fibonacci multiply does the mixing). */
template <typename K>
struct FlatHash
{
    static_assert(std::is_unsigned_v<K> && sizeof(K) <= 8,
                  "a FlatMap key that is not an unsigned integer needs "
                  "its own hash");

    std::uint64_t operator()(K key) const { return key; }
};

/** Map from a small key to a small value; see file comment. */
template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatMap
{
    static_assert(std::is_trivially_copyable_v<K> &&
                      std::is_trivially_copyable_v<V>,
                  "FlatMap moves slots bytewise; keep owning values in "
                  "a side vector");

  public:
    /**
     * Insert (@p key, @p value) unless @p key is present. Returns the
     * mapped value — the existing one when the key was present — and
     * whether this call inserted it. Every value pointer the map hands
     * out is valid until the next insert or erase.
     */
    std::pair<V *, bool>
    tryEmplace(const K &key, V value = V{})
    {
        if (2 * (size_ + 1) > slots_.size())
            rehash(slots_.empty() ? kMinSlots : 2 * slots_.size());
        std::size_t i = home(key);
        while (slots_[i].used) {
            if (slots_[i].key == key)
                return {&slots_[i].value, false};
            i = (i + 1) & mask_;
        }
        slots_[i] = Slot{key, value, true};
        ++size_;
        return {&slots_[i].value, true};
    }

    /** The value mapped to @p key, value-initialised when absent. */
    V &operator[](const K &key) { return *tryEmplace(key).first; }

    /** The value mapped to @p key, or nullptr when absent. */
    V *
    find(const K &key)
    {
        const std::size_t i = slotOf(key);
        return i == kAbsent ? nullptr : &slots_[i].value;
    }

    const V *
    find(const K &key) const
    {
        const std::size_t i = slotOf(key);
        return i == kAbsent ? nullptr : &slots_[i].value;
    }

    /** Remove @p key; returns whether it was present. */
    bool
    erase(const K &key)
    {
        std::size_t i = slotOf(key);
        if (i == kAbsent)
            return false;
        // Backward shift: walk the chain past the hole; an entry may
        // fill the hole unless its home lies cyclically in (hole, j],
        // where moving it would put it before its own home.
        for (std::size_t j = (i + 1) & mask_; slots_[j].used;
             j = (j + 1) & mask_) {
            const std::size_t h = home(slots_[j].key);
            if (((j - h) & mask_) < ((j - i) & mask_))
                continue;
            slots_[i] = slots_[j];
            i = j;
        }
        slots_[i].used = false;
        --size_;
        return true;
    }

    /** Make room for @p n entries: inserting up to @p n never grows
     *  the table. */
    void
    reserve(std::size_t n)
    {
        if (slots_.size() < 2 * n)
            rehash(std::bit_ceil(std::max(2 * n, kMinSlots)));
    }

    /** Remove every entry, keeping the slots. */
    void
    clear()
    {
        for (Slot &slot : slots_)
            slot.used = false;
        size_ = 0;
    }

    /** Call @p fn(key, value) once per entry, in slot order (which
     *  depends on the hash: sort before rendering). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &slot : slots_) {
            if (slot.used)
                fn(slot.key, slot.value);
        }
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
    static constexpr std::size_t kAbsent = ~std::size_t{0};

    std::size_t
    home(const K &key) const
    {
        // Fibonacci hash: the top log2(capacity) bits of the product.
        return static_cast<std::size_t>(
            (Hash{}(key) * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    /** Slot holding @p key, or kAbsent. */
    std::size_t
    slotOf(const K &key) const
    {
        if (size_ == 0)
            return kAbsent;
        std::size_t i = home(key);
        while (slots_[i].used) {
            if (slots_[i].key == key)
                return i;
            i = (i + 1) & mask_;
        }
        return kAbsent;
    }

    /** Move every entry into a new table of @p n slots (a power of
     *  two). */
    void
    rehash(std::size_t n)
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(n, Slot{});
        mask_ = n - 1;
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
        for (const Slot &slot : old) {
            if (!slot.used)
                continue;
            std::size_t i = home(slot.key);
            while (slots_[i].used)
                i = (i + 1) & mask_;
            slots_[i] = slot;
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
};

} // namespace csp

#endif // CSP_CORE_FLAT_MAP_H
