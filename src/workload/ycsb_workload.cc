#include "workload/ycsb_workload.hh"

namespace silo::workload
{

void
YcsbWorkload::setup(MemClient &mem, PmHeap &heap, Rng &rng)
{
    _index = heap.alloc(Addr(_numKeys) * wordBytes, lineBytes);
    _values = heap.allocLines(_numKeys);
    for (unsigned k = 0; k < _numKeys; ++k) {
        Addr v = _values + Addr(k) * lineBytes;
        mem.store(_index + Addr(k) * wordBytes, v);
        for (unsigned w = 0; w < wordsPerLine; ++w)
            mem.store(v + w * wordBytes, rng.next() | 1);
    }
}

std::uint64_t
YcsbWorkload::pickKey(Rng &rng) const
{
    // 80/20 hot set as a cheap stand-in for YCSB's zipfian generator.
    if (rng.chance(0.8))
        return rng.below(_numKeys / 5);
    return _numKeys / 5 + rng.below(_numKeys - _numKeys / 5);
}

Addr
YcsbWorkload::valueAddr(MemClient &mem, std::uint64_t key) const
{
    return mem.load(_index + key * wordBytes);
}

void
YcsbWorkload::opRead(MemClient &mem, std::uint64_t key) const
{
    Addr v = valueAddr(mem, key);
    for (unsigned w = 0; w < wordsPerLine; ++w)
        (void)mem.load(v + w * wordBytes);
}

void
YcsbWorkload::opUpdate(MemClient &mem, std::uint64_t key, Rng &rng)
{
    Addr v = valueAddr(mem, key);
    for (unsigned w = 0; w < wordsPerLine; ++w)
        mem.store(v + w * wordBytes, rng.next() | 1);
}

void
YcsbWorkload::transaction(MemClient &mem, PmHeap &, Rng &rng)
{
    // Two operations per transaction; 20% reads / 80% updates.
    for (int op = 0; op < 2; ++op) {
        std::uint64_t key = pickKey(rng);
        if (rng.below(100) < _readPct)
            opRead(mem, key);
        else
            opUpdate(mem, key, rng);
    }
}

} // namespace silo::workload
