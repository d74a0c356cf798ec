/**
 * @file
 * The simulator's continuation type and the table that parks
 * continuations across events.
 *
 * Every event the queue dispatches and every completion a component
 * hands another (a store's `done`, a WPQ slot waiter, a commit) is a
 * Callback: a move-only `void()` callable whose captured state lives
 * inline, in a fixed buffer of captureBytes. Nothing is allocated to
 * make, move or run one, and a capture that does not fit is a compile
 * error, not a silent heap block. The budget is three words, which
 * fits `[this, index]` and `[this, core, addr]`, but not another
 * Callback: a closure cannot nest a continuation. A component that
 * must hold a continuation across an event parks it instead, in a
 * SlotTable of its own, and schedules or hands on a closure that
 * captures `[this, index]` (DESIGN.md §4e).
 */

#ifndef SILO_SIM_CALLBACK_HH
#define SILO_SIM_CALLBACK_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace silo
{

class Callback;

/** Bytes of captured state a Callback may carry. */
inline constexpr std::size_t callbackCaptureBytes = 24;

/**
 * A callable a Callback stores: `void()`, within the capture budget,
 * at most word-aligned, and movable without throwing.
 */
template <typename D>
concept InlineCallable =
    !std::is_same_v<D, Callback> && std::is_invocable_r_v<void, D &> &&
    sizeof(D) <= callbackCaptureBytes &&
    alignof(D) <= alignof(std::uint64_t) &&
    std::is_nothrow_move_constructible_v<D>;

/** A move-only `void()` callable with its captured state inline. */
class Callback
{
  public:
    static constexpr std::size_t captureBytes = callbackCaptureBytes;

    Callback() noexcept = default;

    /**
     * Store @p f inline. Only InlineCallable callables take part in
     * overload resolution, so an oversize capture fails to compile.
     */
    template <typename F, typename D = std::decay_t<F>>
        requires InlineCallable<D>
    Callback(F &&f) noexcept(std::is_nothrow_constructible_v<D, F>)
    {
        ::new (static_cast<void *>(_buf)) D(std::forward<F>(f));
        _invoke = &invokeOf<D>;
        _manage = manageFor<D>;
    }

    Callback(Callback &&other) noexcept { takeFrom(other); }

    Callback &
    operator=(Callback &&other) noexcept
    {
        if (this != &other) {
            reset();
            takeFrom(other);
        }
        return *this;
    }

    Callback(const Callback &) = delete;
    Callback &operator=(const Callback &) = delete;

    ~Callback() { reset(); }

    /** @return true if a callable is stored. */
    explicit operator bool() const noexcept { return _invoke != nullptr; }

    /** Run the stored callable. @pre a callable is stored. */
    void operator()() { _invoke(_buf); }

  private:

    /** Move-constructs into dst and destroys src; destroys src alone
     *  when dst is null. */
    using Manage = void (*)(void *dst, void *src) noexcept;

    template <typename D>
    static void
    invokeOf(void *p)
    {
        (*static_cast<D *>(p))();
    }

    template <typename D>
    static void
    manageOf(void *dst, void *src) noexcept
    {
        D *from = static_cast<D *>(src);
        if (dst)
            ::new (dst) D(std::move(*from));
        from->~D();
    }

    /**
     * Null for trivially copyable callables (lambdas capturing
     * pointers and integers): a byte copy moves them and nothing
     * destroys them, with no call through a pointer.
     */
    template <typename D>
    static constexpr Manage manageFor =
        std::is_trivially_copyable_v<D> ? nullptr : &manageOf<D>;

    void
    takeFrom(Callback &other) noexcept
    {
        _invoke = other._invoke;
        _manage = other._manage;
        if (_manage)
            _manage(_buf, other._buf);
        else
            std::memcpy(_buf, other._buf, captureBytes);
        other._invoke = nullptr;
        other._manage = nullptr;
    }

    void
    reset() noexcept
    {
        if (_manage)
            _manage(nullptr, _buf);
        _invoke = nullptr;
        _manage = nullptr;
    }

    alignas(std::uint64_t) unsigned char _buf[captureBytes];
    void (*_invoke)(void *) = nullptr;
    Manage _manage = nullptr;
};

/**
 * Entries parked by index: park() stores one and returns its index,
 * take() moves it out and frees the index for reuse (last freed,
 * first reused). Storage only grows, so once a run has reached its
 * peak number of parked entries, parking allocates nothing.
 */
template <typename T>
class SlotTable
{
  public:
    /** Park @p value. @return its index. */
    std::uint32_t
    park(T value)
    {
        if (_free.empty()) {
            _slots.push_back(std::move(value));
            return std::uint32_t(_slots.size() - 1);
        }
        std::uint32_t idx = _free.back();
        _free.pop_back();
        _slots[idx] = std::move(value);
        return idx;
    }

    /** The entry parked at @p idx, left in place. */
    T &operator[](std::uint32_t idx) { return _slots[idx]; }

    /** Move out the entry parked at @p idx and free the index. */
    T
    take(std::uint32_t idx)
    {
        T value = std::move(_slots[idx]);
        _free.push_back(idx);
        return value;
    }

  private:
    std::vector<T> _slots;
    std::vector<std::uint32_t> _free;
};

} // namespace silo

#endif // SILO_SIM_CALLBACK_HH
