#include "checks.hh"

#include <algorithm>

#include "isa/microop.hh"
#include "pmem/log_format.hh"

namespace spbench
{

using namespace sp;

const char *
variantName(unsigned v)
{
    static const char *names[kNumVariants] = {"None", "Log", "Log+P",
                                              "Log+P+Sf", "SP256"};
    return v < kNumVariants ? names[v] : "?";
}

uint64_t
drainProgram(Workload &w, std::vector<MemRef> *refs, size_t cap)
{
    uint64_t instructions = 0;
    MicroOp op;
    while (w.program().next(op)) {
        instructions += op.instructionCount();
        if (!refs || refs->size() >= cap)
            continue;
        if (op.type == OpType::kLoad)
            refs->push_back({op.addr, op.size, 'L'});
        else if (op.type == OpType::kStore)
            refs->push_back({op.addr, op.size, 'S'});
        else if (isOrderingOp(op.type))
            refs->push_back({op.addr, 0, 'F'});
    }
    return instructions;
}

std::string
checkImageContents(const Workload &ref, const MemImage &img,
                   const Contents &expected)
{
    std::string why;
    if (!ref.checkImage(img, &why))
        return std::string("checkImage failed: ") + why;
    Contents got = ref.contents(img);
    if (got != expected) {
        return "contents differ from the functional reference (" +
            std::to_string(got.size()) + " vs " +
            std::to_string(expected.size()) + " entries)";
    }
    return "";
}

uint64_t
countSilentEscapes(const MemImage &faulted, const MemImage &clean,
                   const RecoveryReport &report)
{
    uint64_t escapes = 0;
    for (Addr line : diffLines(faulted, clean)) {
        if (line >= kCrcBase)
            continue;
        if (line >= kLogEntryBase && line < kLogBase + kLogBytes)
            continue;
        if (std::binary_search(report.detectedLines.begin(),
                               report.detectedLines.end(), line))
            continue;
        if (crcCovered(line) &&
            !(clean.readInt(crcSlotAddr(line), 8) & kCrcSlotValid))
            continue;
        ++escapes;
    }
    return escapes;
}

std::string
checkGridRow(const GridRow &row)
{
    std::string name = workloadKindName(row.kind);
    for (unsigned v = kVarLog; v <= kVarLogPSf; ++v) {
        if (row.cycles[v] < row.cycles[v - 1]) {
            return name + ": cycles(" + variantName(v) + ")=" +
                std::to_string(row.cycles[v]) + " < cycles(" +
                variantName(v - 1) + ")=" +
                std::to_string(row.cycles[v - 1]);
        }
    }
    if (row.cycles[kVarSp256] >= row.cycles[kVarLogPSf]) {
        return name + ": cycles(SP256)=" +
            std::to_string(row.cycles[kVarSp256]) +
            " not below cycles(Log+P+Sf)=" +
            std::to_string(row.cycles[kVarLogPSf]);
    }
    if (row.instructions[kVarSp256] != row.instructions[kVarLogPSf])
        return name + ": SP256 retired a different instruction count";
    if (row.durableHash[kVarSp256] != row.durableHash[kVarLogPSf])
        return name + ": SP256 left a different durable image";
    return "";
}

} // namespace spbench
