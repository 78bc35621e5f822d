/**
 * @file
 * A flat map keyed on IR values.
 */
#ifndef LPO_IR_VALUE_MAP_H
#define LPO_IR_VALUE_MAP_H

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "ir/value.h"

namespace lpo::ir {

/**
 * Open addressing with linear probing on the value's address, kept at
 * most half full. The first 64 slots (32 keys) live in the map
 * itself, so the maps of an extracted sequence (at most 24
 * instructions plus their arguments) seldom allocate; a bigger
 * function moves the table to one heap array, or sizes it up front
 * through the constructor.
 * Bindings are never erased.
 */
template <typename V>
class ValueMap
{
  public:
    ValueMap() = default;
    /** A table with room for @p expected keys. */
    explicit ValueMap(size_t expected)
    {
        size_t capacity = slots_.size();
        while (2 * expected > capacity)
            capacity *= 2;
        if (capacity != slots_.size())
            rehash(capacity);
    }
    ValueMap(const ValueMap &) = delete;
    ValueMap &operator=(const ValueMap &) = delete;

    /** The value bound to @p key, or nullptr. */
    const V *
    find(const Value *key) const
    {
        const Slot &slot = table_[probe(key)];
        return slot.key ? &slot.value : nullptr;
    }

    /** Bind @p key to @p value, replacing an earlier binding. */
    void
    insert(const Value *key, V value)
    {
        Slot &slot = table_[probe(key)];
        slot.value = value;
        if (slot.key)
            return;
        slot.key = key;
        if (2 * ++size_ > capacity_)
            rehash(2 * capacity_);
    }

  private:
    struct Slot
    {
        const Value *key = nullptr;
        V value{};
    };

    /** The slot holding @p key, or the empty slot where it goes. */
    size_t
    probe(const Value *key) const
    {
        uint64_t bits = reinterpret_cast<uintptr_t>(key) >> 4;
        size_t i = (bits * 0x9e3779b97f4a7c15ull) >> shift_;
        while (table_[i].key && table_[i].key != key)
            i = (i + 1) & (capacity_ - 1);
        return i;
    }

    void
    rehash(size_t capacity)
    {
        std::vector<Slot> old_heap = std::move(heap_);
        const Slot *old = table_;
        size_t old_capacity = capacity_;
        heap_.assign(capacity, Slot{});
        table_ = heap_.data();
        capacity_ = capacity;
        shift_ = 64 - std::countr_zero(capacity);
        for (size_t i = 0; i < old_capacity; ++i)
            if (old[i].key)
                table_[probe(old[i].key)] = old[i];
    }

    std::array<Slot, 64> slots_{};
    std::vector<Slot> heap_;
    Slot *table_ = slots_.data();
    size_t capacity_ = slots_.size();
    unsigned shift_ = 64 - 6;
    size_t size_ = 0;
};

/** Old value -> new value, as the clone primitives rewrite operands. */
using ValueRemap = ValueMap<Value *>;

} // namespace lpo::ir

#endif // LPO_IR_VALUE_MAP_H
