#include "sim/synth/workload_config.hh"

#include <stdexcept>
#include <string>

namespace swcc
{

namespace
{

void
checkProb(double value, const char *field)
{
    if (!(value >= 0.0 && value <= 1.0)) {
        throw std::invalid_argument(
            std::string(field) + " must lie in [0, 1]");
    }
}

void
checkPow2(std::size_t value, const char *field)
{
    if (value == 0 || (value & (value - 1)) != 0) {
        throw std::invalid_argument(
            std::string(field) + " must be a power of two");
    }
}

} // namespace

Addr
SyntheticWorkloadConfig::codeBase(CpuId cpu) const
{
    return kCodeBase + static_cast<Addr>(cpu) * kCodeStride;
}

Addr
SyntheticWorkloadConfig::privateBase(CpuId cpu) const
{
    return kPrivateBase + static_cast<Addr>(cpu) * kPrivateStride;
}

SharedClassifier
SyntheticWorkloadConfig::sharedClassifier() const
{
    const Addr base = kSharedBase;
    const Addr limit = kSharedBase + sharedBytes;
    return [base, limit](Addr block) {
        return block >= base && block < limit;
    };
}

void
SyntheticWorkloadConfig::validate() const
{
    if (numCpus == 0) {
        throw std::invalid_argument("numCpus must be positive");
    }
    if (numCpus > kMaxCpus) {
        throw std::invalid_argument(
            "numCpus must be at most " + std::to_string(kMaxCpus) +
            " (more private segments would overlap the shared one)");
    }
    if (instructionsPerCpu == 0) {
        throw std::invalid_argument("instructionsPerCpu must be positive");
    }
    checkProb(ls, "ls");
    checkProb(shd, "shd");
    checkProb(wrShared, "wrShared");
    checkProb(wrPrivate, "wrPrivate");
    checkProb(readOnlyCsFraction, "readOnlyCsFraction");
    checkProb(lockFraction, "lockFraction");
    checkPow2(blockBytes, "blockBytes");
    if (blockBytes < 4) {
        throw std::invalid_argument(
            "blockBytes must hold at least one 4-byte word");
    }
    if (codeBytes < 64 || codeBytes > kCodeStride) {
        throw std::invalid_argument(
            "codeBytes must fit the code segment stride");
    }
    if (privateBytes < blockBytes || privateBytes > kPrivateStride) {
        throw std::invalid_argument(
            "privateBytes must fit the private segment stride");
    }
    if (sharedBytes < blockBytes) {
        throw std::invalid_argument(
            "sharedBytes must hold at least one block");
    }
    if (regionBlocks == 0) {
        throw std::invalid_argument("regionBlocks must be positive");
    }
    if (csDataRefs == 0) {
        throw std::invalid_argument("csDataRefs must be positive");
    }
    const std::size_t shared_blocks = sharedBytes / blockBytes;
    if (regionBlocks + numLocks > shared_blocks) {
        throw std::invalid_argument(
            "shared segment too small for regionBlocks + numLocks");
    }
    if (!(codeParetoAlpha > 0.0) || !(privateParetoAlpha > 0.0)) {
        throw std::invalid_argument(
            "Pareto stack-distance shapes must be positive");
    }
}

} // namespace swcc
