/**
 * @file
 * Array micro-benchmark: randomly swap two elements in an array
 * (Table III).
 *
 * Elements are 64 B; fields other than the element id share a common
 * pattern, so most of a swap's word stores do not change the stored
 * value. This reproduces the paper's observation that ~90% of Array's
 * log entries are ignored by Silo's log-ignorance filter (§VI-D).
 */

#ifndef SILO_WORKLOAD_ARRAY_WORKLOAD_HH
#define SILO_WORKLOAD_ARRAY_WORKLOAD_HH

#include "workload/workload.hh"

namespace silo::workload
{

/** Random element swaps in a PM-resident array. */
class ArrayWorkload : public Workload
{
  public:
    /** @param num_elements Array length (64 B elements). */
    explicit ArrayWorkload(unsigned num_elements = 4096)
        : _numElements(num_elements)
    {}

    const char *name() const override { return "Array"; }
    void setup(MemClient &mem, PmHeap &heap, Rng &rng) override;
    void transaction(MemClient &mem, PmHeap &heap, Rng &rng) override;

  private:
    /** Swap elements @p i and @p j word by word. */
    void swap(MemClient &mem, unsigned i, unsigned j);

    Addr elem(unsigned i) const { return _base + Addr(i) * lineBytes; }

    unsigned _numElements;
    Addr _base = 0;
};

} // namespace silo::workload

#endif // SILO_WORKLOAD_ARRAY_WORKLOAD_HH
