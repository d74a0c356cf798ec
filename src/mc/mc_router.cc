#include "mc/mc_router.hh"

#include "sim/address_map.hh"

namespace silo::mc
{

McRouter::McRouter(EventQueue &eq, const SimConfig &cfg,
                   nvm::PmDevice &pm, PersistentDomain &domain)
{
    unsigned n = unsigned(domain.mcs.size());
    for (unsigned i = 0; i < n; ++i) {
        std::string name = n == 1 ? "mc" : "mc" + std::to_string(i);
        _mcs.push_back(std::make_unique<MemController>(
            eq, cfg, pm, domain, i, std::move(name)));
    }
}

unsigned
McRouter::route(Addr addr) const
{
    if (_mcs.size() == 1)
        return 0;
    if (addr_map::inDataRegion(addr)) {
        return addr_map::dataArenaOwner(addr) %
               unsigned(_mcs.size());
    }
    if (addr_map::inLogRegion(addr)) {
        unsigned tid = unsigned((addr - addr_map::logRegionBase) /
                                addr_map::logAreaBytes);
        return tid % unsigned(_mcs.size());
    }
    return unsigned((addr / pmBufferLineBytes) % _mcs.size());
}

unsigned
McRouter::heldEntries() const
{
    unsigned total = 0;
    for (const auto &mc : _mcs)
        total += mc->heldEntries();
    return total;
}

std::uint64_t
McRouter::fullStalls() const
{
    std::uint64_t total = 0;
    for (const auto &mc : _mcs)
        total += mc->fullStalls();
    return total;
}

std::uint64_t
McRouter::acceptedWrites() const
{
    std::uint64_t total = 0;
    for (const auto &mc : _mcs)
        total += mc->acceptedWrites();
    return total;
}

std::uint64_t
McRouter::acceptedBytes() const
{
    std::uint64_t total = 0;
    for (const auto &mc : _mcs)
        total += mc->acceptedBytes();
    return total;
}

void
McRouter::setEvictionObserver(std::function<void(Addr)> observer)
{
    for (auto &mc : _mcs)
        mc->setEvictionObserver(observer);
}

void
McRouter::drainAll()
{
    for (auto &mc : _mcs)
        mc->drainAll();
}

} // namespace silo::mc
