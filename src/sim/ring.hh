/**
 * @file
 * A FIFO in one contiguous ring of slots.
 *
 * The simulator's queues (the WPQ, the MC's write waiters, the PM
 * device's slot waiters, a scheme's stalled stores, the log
 * lifecycle's gate) push at the back and take from the front, and a
 * std::deque of them allocates a node every few pushes: every node
 * of a deque of 288 B WPQ entries holds one entry. The ring allocates
 * only when it outgrows its power-of-two capacity, which stops once a
 * run has reached its peak occupancy.
 *
 * Copying a ring copies its live entries, into the destination's
 * storage when it is large enough: a crash case assigns a whole
 * persistent domain, so a copy must cost its occupancy, not its
 * capacity. erase() removes an entry from the middle, keeping the
 * order of the rest (LAD's held WPQ entries are passed over by the
 * drain).
 */

#ifndef SILO_SIM_RING_HH
#define SILO_SIM_RING_HH

#include <bit>
#include <cstddef>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

namespace silo
{

/** A FIFO of T in a power-of-two ring that only grows. */
template <typename T>
class Ring
{
  public:
    Ring() = default;
    Ring(const Ring &other) { *this = other; }

    Ring(Ring &&other) noexcept
        : _slots(std::move(other._slots)), _mask(other._mask),
          _head(other._head), _size(other._size)
    {
        other._mask = other._head = other._size = 0;
    }

    /** Copy @p other 's entries, reusing this ring's storage. */
    Ring &
    operator=(const Ring &other)
    {
        if (this == &other)
            return *this;
        clear();
        if (_slots.size() < other._size) {
            _slots.resize(std::bit_ceil(other._size));
            _mask = _slots.size() - 1;
        }
        for (std::size_t i = 0; i < other._size; ++i)
            _slots[i] = other[i];
        _size = other._size;
        return *this;
    }

    Ring &
    operator=(Ring &&other) noexcept
    {
        _slots = std::move(other._slots);
        _mask = other._mask;
        _head = other._head;
        _size = other._size;
        other._mask = other._head = other._size = 0;
        return *this;
    }

    bool empty() const { return _size == 0; }
    std::size_t size() const { return _size; }

    /** The @p i -th entry from the front. */
    T &operator[](std::size_t i) { return _slots[slot(i)]; }
    const T &operator[](std::size_t i) const { return _slots[slot(i)]; }

    T &front() { return _slots[_head]; }

    void
    push_back(T value)
    {
        if (_slots.empty() || _size > _mask)
            grow();
        _slots[slot(_size)] = std::move(value);
        ++_size;
    }

    /** Move out the front entry. @pre !empty() */
    T
    take_front()
    {
        T value = std::move(_slots[_head]);
        dropFront();
        return value;
    }

    /**
     * Remove the @p i -th entry; the ones before it move back one
     * slot, so the rest keep their order. O(i).
     */
    void
    erase(std::size_t i)
    {
        for (; i > 0; --i)
            (*this)[i] = std::move((*this)[i - 1]);
        dropFront();
    }

    void
    clear()
    {
        if constexpr (!std::is_trivially_destructible_v<T>) {
            for (std::size_t i = 0; i < _size; ++i)
                (*this)[i] = T{};
        }
        _head = _size = 0;
    }

    /** Front-to-back iteration. */
    template <typename R, typename V>
    class Iter
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = std::remove_const_t<V>;
        using difference_type = std::ptrdiff_t;
        using pointer = V *;
        using reference = V &;

        Iter() = default;
        Iter(R *ring, std::size_t i) : _ring(ring), _i(i) {}
        V &operator*() const { return (*_ring)[_i]; }
        V *operator->() const { return &(*_ring)[_i]; }
        Iter &operator++() { ++_i; return *this; }
        Iter operator++(int) { Iter old = *this; ++_i; return old; }
        bool operator==(const Iter &o) const { return _i == o._i; }

      private:
        R *_ring = nullptr;
        std::size_t _i = 0;
    };
    using iterator = Iter<Ring, T>;
    using const_iterator = Iter<const Ring, const T>;

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, _size}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, _size}; }

  private:
    std::size_t slot(std::size_t i) const { return (_head + i) & _mask; }

    /** Drop the front entry, releasing what it holds. */
    void
    dropFront()
    {
        if constexpr (!std::is_trivially_destructible_v<T>)
            _slots[_head] = T{};
        _head = slot(1);
        --_size;
    }

    /** Double the capacity (at least 8 slots), entries front first. */
    void
    grow()
    {
        std::vector<T> bigger(_slots.empty() ? 8 : 2 * _slots.size());
        for (std::size_t i = 0; i < _size; ++i)
            bigger[i] = std::move((*this)[i]);
        _slots = std::move(bigger);
        _mask = _slots.size() - 1;
        _head = 0;
    }

    std::vector<T> _slots;
    /** _slots.size() - 1 (the capacity is a power of two). */
    std::size_t _mask = 0;
    std::size_t _head = 0;
    std::size_t _size = 0;
};

} // namespace silo

#endif // SILO_SIM_RING_HH
