/**
 * @file
 * YCSB macro-benchmark (Table III, from Whisper).
 *
 * A PM-resident key-value store with a hash index and fixed 64 B values.
 * Like MorLog's configuration, the operation mix is 20% reads / 80%
 * updates; keys follow a skewed (hot-set) distribution, giving updates
 * the temporal locality that makes on-chip log merging effective.
 */

#ifndef SILO_WORKLOAD_YCSB_WORKLOAD_HH
#define SILO_WORKLOAD_YCSB_WORKLOAD_HH

#include "workload/workload.hh"

namespace silo::workload
{

/** Read/update mix over a PM key-value store. */
class YcsbWorkload : public Workload
{
  public:
    /**
     * @param num_keys Keys loaded at setup.
     * @param read_pct Percentage of read operations (paper: 20).
     */
    explicit YcsbWorkload(unsigned num_keys = 16384,
                          unsigned read_pct = 20)
        : _numKeys(num_keys), _readPct(read_pct)
    {}

    const char *name() const override { return "YCSB"; }
    void setup(MemClient &mem, PmHeap &heap, Rng &rng) override;
    void transaction(MemClient &mem, PmHeap &heap, Rng &rng) override;

  private:
    /** Skewed key pick: 80% of accesses to the hottest 20% of keys. */
    std::uint64_t pickKey(Rng &rng) const;

    Addr valueAddr(MemClient &mem, std::uint64_t key) const;

    void opRead(MemClient &mem, std::uint64_t key) const;
    void opUpdate(MemClient &mem, std::uint64_t key, Rng &rng);

    unsigned _numKeys;
    unsigned _readPct;
    Addr _index = 0;    //!< dense array of value addresses
    Addr _values = 0;   //!< 64 B records
};

} // namespace silo::workload

#endif // SILO_WORKLOAD_YCSB_WORKLOAD_HH
