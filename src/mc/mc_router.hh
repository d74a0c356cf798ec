/**
 * @file
 * Routing across multiple memory controllers (§III-D "Multiple MCs").
 *
 * The paper notes that with several MCs, each MC contains a log
 * controller and the log generator sends all logs of one transaction
 * to the same MC, so the logs and the in-place updates end up at the
 * same controller and no cross-MC coordination is needed. We realize
 * that property by routing through the owning thread: a thread's data
 * arena and its log area map to the same controller.
 *
 * With numMemControllers == 1 (the Table II default) the router is a
 * transparent pass-through.
 */

#ifndef SILO_MC_MC_ROUTER_HH
#define SILO_MC_MC_ROUTER_HH

#include <memory>
#include <vector>

#include "mc/mem_controller.hh"

namespace silo::mc
{

/** A bank of memory controllers with thread-affine routing. */
class McRouter
{
  public:
    /** One controller per McState of @p domain, sharing its log region. */
    McRouter(EventQueue &eq, const SimConfig &cfg, nvm::PmDevice &pm,
             PersistentDomain &domain);

    /** Number of controllers. */
    unsigned numControllers() const
    {
        return unsigned(_mcs.size());
    }

    /** The controller owning @p addr. */
    MemController &controllerFor(Addr addr) { return *_mcs[route(addr)]; }
    MemController &controllerAt(unsigned i) { return *_mcs[i]; }

    /** @name MemController API, dispatched by address */
    /// @{
    bool
    tryWriteLine(Addr line_addr,
                 const std::array<Word, wordsPerLine> &values,
                 bool evicted, bool held = false)
    {
        return controllerFor(line_addr)
            .tryWriteLine(line_addr, values, evicted, held);
    }

    void
    writeWord(Addr word_addr, Word value, std::function<void()> done)
    {
        controllerFor(word_addr)
            .writeWord(word_addr, value, std::move(done));
    }

    void
    writeLog(Addr rec_addr, const log::LogRecord &record,
             std::function<void()> done)
    {
        controllerFor(rec_addr).writeLog(rec_addr, record,
                                         std::move(done));
    }

    /** Wait for a slot on the controller owning @p addr. */
    void
    requestWriteSlot(Addr addr, std::function<void()> cb)
    {
        controllerFor(addr).requestWriteSlot(std::move(cb));
    }

    void
    read(Addr line_addr, std::function<void()> done)
    {
        controllerFor(line_addr).read(line_addr, std::move(done));
    }

    void
    releaseHeld(Addr line_addr)
    {
        controllerFor(line_addr).releaseHeld(line_addr);
    }
    /// @}

    /** @name Aggregates and broadcasts */
    /// @{
    unsigned heldEntries() const;
    std::uint64_t fullStalls() const;
    std::uint64_t acceptedWrites() const;
    std::uint64_t acceptedBytes() const;

    /** Register the observer with every controller. */
    void setEvictionObserver(std::function<void(Addr)> observer);

    /** Register the persistency checker with every controller. */
    void
    setCheckSink(log::PersistEventSink *sink)
    {
        for (auto &mc : _mcs)
            mc->setCheckSink(sink);
    }

    /** Clean shutdown: every controller's MemController::drainAll(). */
    void drainAll();
    /// @}

  private:
    /**
     * Controller index for @p addr: thread-affine for data arenas and
     * log areas so one transaction's traffic stays on one MC.
     */
    unsigned route(Addr addr) const;

    std::vector<std::unique_ptr<MemController>> _mcs;
};

} // namespace silo::mc

#endif // SILO_MC_MC_ROUTER_HH
