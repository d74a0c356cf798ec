/**
 * @file
 * Post-crash recovery, one routine for every scheme.
 *
 * A log record describes itself (Fig. 6: tid, txid, kind), so one
 * rule recovers every scheme: a record is committed iff its thread's
 * log holds, after it, a commit marker (the write-ahead-log schemes
 * Base, FWB, MorLog and SW-eADR write one at Tx_end) or an ID tuple
 * (Silo's crash flush, §III-G) naming its txid. A marker thus commits
 * the records of its txid written since that txid's previous marker,
 * and a txid reused past the 16-bit wrap does not inherit the marker
 * of its earlier instance. Recovery replays the new data
 * of committed transactions in log order and revokes the rest with
 * their old data in reverse log order. The WAL schemes write undo+redo
 * records; Silo writes undo records (overflow evictions, and the crash
 * flush of uncommitted entries) and, at the crash, redo records of
 * committed ones; LAD's slow mode writes undo records only (its commit
 * truncates them). So the rule is each scheme's own recovery
 * procedure.
 *
 * Recovery walks each thread's records in place, in the store's
 * address order, which is write (LSN) order for every record that was
 * appended where it lies: one backward walk marks each txid whose
 * marker it has passed and collects the committed redo and uncommitted
 * undo records; the redo then replays in write order, and the undo is
 * revoked in reverse write order.
 *
 * Segmented mode (DESIGN.md §4j): the cleaner migrates records to new
 * addresses, keeping their LSN (the original append address), so a
 * copy's address no longer says when it was written, and a crash
 * between "copy durable" and "original dropped" leaves two copies of
 * one record. The walk sorts only those copies by LSN and merges them
 * in, which gives exactly the order of a stable sort of the whole log
 * by LSN; of each run of equal LSNs it keeps the first, and it skips
 * the lifecycle's checkpoint markers. orderedLiveRecords() and
 * walRecover() share that one walk.
 */

#ifndef SILO_LOG_WAL_RECOVERY_HH
#define SILO_LOG_WAL_RECOVERY_HH

#include <vector>

#include "sim/log_region.hh"
#include "sim/word_store.hh"

namespace silo::log
{

/**
 * Thread @p tid 's live records in write (LSN) order, with duplicate
 * LSNs (in-flight migrations) deduplicated and lifecycle checkpoint
 * markers dropped: a copy of the sequence walRecover() walks backward.
 * Multi-segment by construction: the walk covers every non-clean
 * segment from head to tail.
 */
std::vector<std::pair<Addr, LogRecord>>
orderedLiveRecords(const LogRegionStore &logs, unsigned tid);

/**
 * Recover @p media from the live records of @p threads threads in
 * @p logs, then truncate the log.
 */
void walRecover(LogRegionStore &logs, unsigned threads,
                WordStore &media);

} // namespace silo::log

#endif // SILO_LOG_WAL_RECOVERY_HH
