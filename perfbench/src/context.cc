#include "workloads.hh"

namespace perfbench
{

void
PassContext::noteOp(const std::string &why)
{
    ++attempted;
    if (why.empty())
        return;
    ++failed;
    if (failures.size() < 20)
        failures.push_back(why);
}

RunMeter::RunMeter(PassContext &ctx, const silo::EventQueue &eq,
                   const char *span_name)
    : _ctx(ctx), _eq(eq), _span(ctx.spans, span_name),
      _events(eq.executedEvents())
{
    if (const auto *tp = silo::prof::currentThreadProfile()) {
        for (std::size_t d = 0; d < silo::prof::numDomains; ++d)
            _domain[d] = tp->counters()[d].selfNanos;
    }
}

RunMeter::~RunMeter()
{
    _ctx.counts.runAllocs += _allocs.count();
    _ctx.counts.runEvents += _eq.executedEvents() - _events;
    if (const auto *tp = silo::prof::currentThreadProfile()) {
        for (std::size_t d = 0; d < silo::prof::numDomains; ++d)
            _ctx.domainNanos[d] += tp->counters()[d].selfNanos - _domain[d];
    }
}

std::string
Workload::reconcile(const PassContext &untimed,
                    const PassContext &traced) const
{
    if (untimed.digest.hex() != traced.digest.hex())
        return "traced pass changed the simulated outputs (digest " +
               traced.digest.hex() + " vs " + untimed.digest.hex() + ")";
    if (untimed.attempted != traced.attempted ||
        untimed.failed != traced.failed)
        return "traced pass ran or failed different ops";
    return "";
}

} // namespace perfbench
