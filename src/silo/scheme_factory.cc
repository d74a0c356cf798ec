#include "log/logging_scheme.hh"

#include "log/base_scheme.hh"
#include "log/fwb_scheme.hh"
#include "log/lad_scheme.hh"
#include "log/morlog_scheme.hh"
#include "log/sw_eadr_scheme.hh"
#include "silo/silo_scheme.hh"

namespace silo::log
{

std::unique_ptr<LoggingScheme>
makeScheme(SchemeContext ctx)
{
    switch (ctx.cfg.scheme) {
      case SchemeKind::Base:
        return std::make_unique<BaseScheme>(std::move(ctx));
      case SchemeKind::Fwb:
        return std::make_unique<FwbScheme>(std::move(ctx));
      case SchemeKind::MorLog:
        return std::make_unique<MorLogScheme>(std::move(ctx));
      case SchemeKind::Lad:
        return std::make_unique<LadScheme>(std::move(ctx));
      case SchemeKind::Silo:
        return std::make_unique<silo_scheme::SiloScheme>(
            std::move(ctx));
      case SchemeKind::SwEadr:
        return std::make_unique<SwEadrScheme>(std::move(ctx));
    }
    panic("unknown scheme kind");
}

} // namespace silo::log
