#include "trace/hw_state.h"

#include "core/hashing.h"

namespace csp::trace {

void
HwContextTracker::captureInto(const TraceRecord &rec,
                              ContextSnapshot &ctx) const
{
    ctx.set(Attr::IP, rec.pc);
    ctx.set(Attr::BranchHistory, bhr_);
    ctx.set(Attr::RegData, rec.reg_value);
    ctx.set(Attr::PrevData, last_loaded_);
    // Two most recent access blocks, position-combined, so the feature
    // distinguishes "where in the structure we are" without collapsing to
    // a single address.
    ctx.set(Attr::AddrHistory, addr_hist_hash_);
    if (rec.hint.valid()) {
        ctx.set(Attr::TypeInfo, rec.hint.type_id);
        ctx.set(Attr::LinkOffset, rec.hint.link_offset);
        ctx.set(Attr::RefForm,
                static_cast<std::uint64_t>(rec.hint.ref_form));
    } else {
        ctx.set(Attr::TypeInfo, 0);
        ctx.set(Attr::LinkOffset, hints::kNoLinkOffset);
        ctx.set(Attr::RefForm, 0);
    }
}

void
HwContextTracker::update(const TraceRecord &rec)
{
    switch (rec.kind) {
      case InstKind::Branch:
        bhr_ = static_cast<std::uint16_t>((bhr_ << 1) |
                                          (rec.taken ? 1u : 0u));
        break;
      case InstKind::Load:
        last_loaded_ = rec.loaded_value;
        [[fallthrough]];
      case InstKind::Store:
        addr_hist_[1] = addr_hist_[0];
        addr_hist_[0] = rec.vaddr / block_bytes_;
        addr_hist_hash_ = hashCombine(addr_hist_[0], addr_hist_[1]);
        break;
      case InstKind::Compute:
        break;
    }
}

} // namespace csp::trace
