/**
 * @file
 * Differential test of the WPQ's ring (sim/ring.hh) against the
 * std::deque it replaced, under the memory controller's operations.
 *
 * Both queues take the same random stream of accepts (coalescing into
 * a same-key, same-disposition entry, held or not), LAD releases,
 * drains of the first non-held entry, crash drains and copies into a
 * reused destination, through one implementation of each operation
 * written over either container. After every step the two must hold
 * the same entries in the same order, and mc::adrValue() on a domain
 * holding the ring must return what a back-to-front scan of the
 * deque finds.
 */

#include <gtest/gtest.h>

#include <deque>
#include <random>
#include <vector>

#include "mc/mem_controller.hh"

namespace silo::mc
{
namespace
{

/** Accept @p in : coalesce into a matching entry, else append. */
template <typename Queue>
void
accept(Queue &q, const WpqEntry &in)
{
    for (WpqEntry &e : q) {
        if (e.key == in.key && e.held == in.held &&
            e.logRegion == in.logRegion) {
            for (std::uint32_t bits = in.wordMask; bits; bits &= bits - 1) {
                unsigned idx = unsigned(std::countr_zero(bits));
                e.set(idx, in.values[idx]);
            }
            e.bytes = std::min<unsigned>(lineBytes, e.bytes + in.bytes);
            return;
        }
    }
    q.push_back(in);
}

/** LAD's commit: the held entries of @p key become drainable. */
template <typename Queue>
void
release(Queue &q, Addr key)
{
    for (WpqEntry &e : q) {
        if (e.held && e.key == key)
            e.held = false;
    }
}

/** Index of the oldest drainable entry, or size() if none. */
template <typename Queue>
std::size_t
firstDrainable(const Queue &q)
{
    std::size_t i = 0;
    while (i < q.size() && q[i].held)
        ++i;
    return i;
}

/** The crash drain's order: the non-held entries, oldest first. */
template <typename Queue>
std::vector<WpqEntry>
crashOrder(const Queue &q)
{
    std::vector<WpqEntry> out;
    for (const WpqEntry &e : q) {
        if (!e.held)
            out.push_back(e);
    }
    return out;
}

bool
sameEntry(const WpqEntry &a, const WpqEntry &b)
{
    if (a.key != b.key || a.pmLine != b.pmLine || a.held != b.held ||
        a.logRegion != b.logRegion || a.wordMask != b.wordMask ||
        a.bytes != b.bytes)
        return false;
    for (std::uint32_t bits = a.wordMask; bits; bits &= bits - 1) {
        unsigned idx = unsigned(std::countr_zero(bits));
        if (a.values[idx] != b.values[idx])
            return false;
    }
    return true;
}

void
expectSame(const Ring<WpqEntry> &ring, const std::deque<WpqEntry> &model,
           int step)
{
    ASSERT_EQ(ring.size(), model.size()) << "step " << step;
    for (std::size_t i = 0; i < model.size(); ++i)
        ASSERT_TRUE(sameEntry(ring[i], model[i]))
            << "step " << step << " entry " << i;
}

/** The newest non-held data entry holding @p word, as adrValue reads. */
std::optional<Word>
modelAdrValue(const std::deque<WpqEntry> &model, Addr word)
{
    const Addr pm_line = pmLineAlign(word);
    const unsigned idx = unsigned((word - pm_line) / wordBytes);
    for (auto e = model.rbegin(); e != model.rend(); ++e) {
        if (!e->held && !e->logRegion && e->pmLine == pm_line &&
            (e->wordMask & (std::uint32_t(1) << idx)))
            return e->values[idx];
    }
    return std::nullopt;
}

TEST(WpqRing, MatchesADequeUnderRandomOperations)
{
    SimConfig cfg;
    std::mt19937_64 rng(2024);
    for (int round = 0; round < 8; ++round) {
        PersistentDomain domain(cfg);
        Ring<WpqEntry> &ring = domain.mcs[0].wpq;
        std::deque<WpqEntry> model;
        // A copy destination that keeps (and reuses) its storage.
        Ring<WpqEntry> copy;
        // Eight 64 B keys over two pm lines, data and log.
        const Addr base = 0x40000;
        for (int step = 0; step < 4000; ++step) {
            const unsigned op = unsigned(rng() % 100);
            if (op < 45) {
                WpqEntry in{};
                in.key = base + Addr(rng() % 8) * lineBytes;
                in.pmLine = pmLineAlign(in.key);
                in.logRegion = rng() % 4 == 0;
                in.held = !in.logRegion && rng() % 3 == 0;
                in.bytes = wordBytes;
                const unsigned first =
                    unsigned((in.key - in.pmLine) / wordBytes);
                for (unsigned w = 0; w < wordsPerLine; ++w) {
                    if (rng() % 3 == 0)
                        in.set(first + w, rng() % 16);
                }
                if (in.wordMask == 0)
                    in.set(first, rng() % 16);
                if (model.size() < 64) {
                    accept(ring, in);
                    accept(model, in);
                }
            } else if (op < 55) {
                const Addr key = base + Addr(rng() % 8) * lineBytes;
                release(ring, key);
                release(model, key);
            } else if (op < 85) {
                const std::size_t i = firstDrainable(model);
                ASSERT_EQ(firstDrainable(ring), i) << "step " << step;
                if (i < model.size()) {
                    ring.erase(i);
                    model.erase(model.begin() + std::ptrdiff_t(i));
                }
            } else if (op < 88) {
                const std::vector<WpqEntry> want = crashOrder(model);
                const std::vector<WpqEntry> got = crashOrder(ring);
                ASSERT_EQ(got.size(), want.size());
                for (std::size_t i = 0; i < want.size(); ++i)
                    ASSERT_TRUE(sameEntry(got[i], want[i]));
                ring.clear();
                model.clear();
            } else {
                copy = ring;
                expectSame(copy, model, step);
            }
            expectSame(ring, model, step);
            const Addr word =
                base + Addr(rng() % (2 * pmBufferLineBytes / wordBytes)) *
                           wordBytes;
            // The on-PM buffer and the media are empty: the WPQ decides.
            ASSERT_EQ(adrValue(domain, word), modelAdrValue(model, word))
                << "step " << step;
        }
        // A copy of a domain copies its WPQ, in order.
        PersistentDomain copied;
        copied = domain;
        expectSame(copied.mcs[0].wpq, model, -1);
    }
}

TEST(WpqRing, CopyReusesTheDestinationAndCopiesLiveEntriesOnly)
{
    Ring<int> big;
    for (int i = 0; i < 64; ++i)
        big.push_back(i);
    Ring<int> small;
    for (int i = 0; i < 3; ++i)
        small.push_back(100 + i);
    // Wrap the small ring's head before copying it.
    small.take_front();
    small.push_back(103);

    Ring<int> dest = big;
    ASSERT_EQ(dest.size(), 64u);
    const int *storage = &dest[0];
    dest = small;
    ASSERT_EQ(dest.size(), 3u);
    EXPECT_EQ(&dest[0], storage) << "the copy reallocated";
    EXPECT_EQ(dest[0], 101);
    EXPECT_EQ(dest[1], 102);
    EXPECT_EQ(dest[2], 103);
    dest = big;
    EXPECT_EQ(&dest[0], storage);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(dest[std::size_t(i)], i);
}

} // namespace
} // namespace silo::mc
