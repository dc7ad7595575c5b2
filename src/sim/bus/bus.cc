#include "sim/bus/bus.hh"

#include <algorithm>
#include <stdexcept>

namespace swcc
{

Bus::Grant
Bus::acquire(Cycles now, Cycles duration)
{
    if (duration <= 0.0) {
        throw std::invalid_argument(
            "bus transactions must have positive duration");
    }
    Grant grant;
    grant.start = std::max(now, freeAt_);
    grant.waited = grant.start - now;
    freeAt_ = grant.start + duration;
    busyCycles_ += duration;
    totalWaited_ += grant.waited;
    ++transactions_;
    if (observer_ != nullptr) {
        observer_->recordComplete(grantName_, observerPid_,
                                  observerTid_, grant.start, duration);
    }
    return grant;
}

void
Bus::setObserver(obs::TraceRecorder *recorder, std::int32_t pid,
                 std::int32_t tid)
{
    observer_ = recorder;
    observerPid_ = pid;
    observerTid_ = tid;
    if (recorder != nullptr) {
        grantName_ = recorder->intern("bus.grant");
    }
}

void
Bus::reset()
{
    freeAt_ = 0.0;
    busyCycles_ = 0.0;
    totalWaited_ = 0.0;
    transactions_ = 0;
}

} // namespace swcc
