#include "cpu/core_model.h"

#include <algorithm>

namespace csp::cpu {

CoreModel::CoreModel(const CoreConfig &config)
    : config_(config),
      rob_(config.rob_entries, 0),
      lq_(config.lq_entries, 0)
{}

Cycle
CoreModel::robGate() const
{
    return rob_count_ == rob_.size() ? rob_[rob_head_] : 0;
}

void
CoreModel::robPush(Cycle retire)
{
    // In-order retirement: a younger instruction cannot retire before an
    // older one.
    retire = std::max(retire, last_retire_);
    last_retire_ = retire;
    elapsed_ = std::max(elapsed_, retire);
    if (rob_count_ == rob_.size()) {
        rob_[rob_head_] = retire;
        rob_head_ = (rob_head_ + 1) % rob_.size();
    } else {
        rob_[(rob_head_ + rob_count_) % rob_.size()] = retire;
        ++rob_count_;
    }
}

Cycle
CoreModel::dispatchNext()
{
    const Cycle fetch = slot_ / config_.fetch_width;
    ++instructions_;
    Cycle dispatch = std::max({fetch, robGate(), fetch_ready_});
    fetch_ready_ = dispatch;
    // Re-sync the fetch slot after stalls so that at most fetch_width
    // instructions dispatch per cycle even once the stall clears.
    slot_ = std::max(slot_ + 1, dispatch * config_.fetch_width + 1);
    return dispatch;
}

Cycle
CoreModel::loadIssueAt(Cycle dispatch, bool dep_on_prev_load)
{
    Cycle issue = dispatch;
    if (lq_count_ == lq_.size())
        issue = std::max(issue, lq_[lq_head_]);
    if (dep_on_prev_load)
        issue = std::max(issue, last_load_complete_);
    return issue;
}

void
CoreModel::complete(Cycle done)
{
    robPush(done);
}

void
CoreModel::completeLoad(Cycle done)
{
    last_load_complete_ = std::max(last_load_complete_, done);
    if (lq_count_ == lq_.size()) {
        lq_[lq_head_] = done;
        lq_head_ = (lq_head_ + 1) % lq_.size();
    } else {
        lq_[(lq_head_ + lq_count_) % lq_.size()] = done;
        ++lq_count_;
    }
    robPush(done);
}

void
CoreModel::computeBurst(std::uint32_t count)
{
    for (std::uint32_t i = 0; i < count; ++i) {
        const Cycle dispatch = dispatchNext();
        complete(dispatch + 1);
    }
}

} // namespace csp::cpu
