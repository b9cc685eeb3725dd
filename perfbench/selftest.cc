/**
 * @file
 * Self-test of the benchmark's correctness checks: each check passes on a
 * real run's output and fails on the same output with one defect planted.
 *
 *  1. a durable image with one live line flipped fails the image check;
 *  2. a recovery report that leaves one differing live line unreported
 *     fails the silent-escape check;
 *  3. a grid row whose Log+P+Sf and SP256 cycle counts are swapped fails
 *     the Figure 8 ordering check.
 *
 * Exit status 0 when every check behaves, 1 otherwise.
 */

#include <cstdio>
#include <string>

#include "checks.hh"
#include "pmem/log_format.hh"

using namespace sp;
using namespace spbench;

namespace
{

int g_failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++g_failures;
}

/** A small linked-list config: the head node is one metadata read away. */
RunConfig
smallConfig(PersistMode mode, bool sp, bool checksums)
{
    RunConfig cfg;
    cfg.kind = WorkloadKind::kLinkedList;
    cfg.params.seed = 7;
    cfg.params.initOps = 600;
    cfg.params.simOps = 200;
    cfg.params.mode = mode;
    cfg.params.checksums = checksums;
    cfg.sim.sp.enabled = sp;
    return cfg;
}

/** The line of the list's head node: live data in every image. */
Addr
headNodeValueAddr(const MemImage &img)
{
    // LinkedListWorkload keeps the head pointer at the first workload
    // metadata word; a node is {key, value, next}.
    return img.readInt(kWorkloadMetaBase, 8) + 8;
}

void
flipBit(MemImage &img, Addr addr)
{
    img.writeInt(addr, img.readInt(addr, 8) ^ 1, 8);
}

void
imageCheck()
{
    RunConfig cfg = smallConfig(PersistMode::kLogPSf, true, false);
    RunResult run = runExperiment(cfg);
    std::unique_ptr<Workload> ref = makeWorkload(cfg.kind, cfg.params);
    ref->setup();
    drainProgram(*ref);
    Contents expected = ref->contents(ref->image());

    expect(checkImageContents(*ref, run.durable, expected).empty(),
           "image check passes on a real durable image");
    MemImage bad = run.durable;
    flipBit(bad, headNodeValueAddr(bad));
    std::string why = checkImageContents(*ref, bad, expected);
    expect(!why.empty(), "image check fails with one live line flipped (" +
                             why + ")");
}

void
escapeCheck()
{
    RunResult run =
        runExperiment(smallConfig(PersistMode::kLogPSf, true, true));
    const MemImage &clean = run.durable;
    Addr target = headNodeValueAddr(clean);
    Addr line = blockAlign(target);
    expect(crcCovered(line) &&
               (clean.readInt(crcSlotAddr(line), 8) & kCrcSlotValid),
           "head node line is live (covered by a valid CRC slot)");

    MemImage faulted = clean;
    flipBit(faulted, target);
    RecoveryReport reported;
    reported.detectedLines = {line};
    expect(countSilentEscapes(faulted, clean, reported) == 0,
           "escape check passes when the differing line is reported");
    expect(countSilentEscapes(clean, clean, RecoveryReport()) == 0,
           "escape check passes on identical images");
    RecoveryReport unreported;
    expect(countSilentEscapes(faulted, clean, unreported) == 1,
           "escape check counts one escape when the line is unreported");
}

void
gridCheck()
{
    static const PersistMode modes[kNumVariants] = {
        PersistMode::kNone, PersistMode::kLog, PersistMode::kLogP,
        PersistMode::kLogPSf, PersistMode::kLogPSf};
    GridRow row;
    row.kind = WorkloadKind::kLinkedList;
    for (unsigned v = 0; v < kNumVariants; ++v) {
        RunResult run =
            runExperiment(smallConfig(modes[v], v == kVarSp256, false));
        row.cycles[v] = run.stats.cycles;
        row.instructions[v] = run.stats.instructions;
        row.durableHash[v] = run.durable.hash();
    }
    expect(checkGridRow(row).empty(), "grid check passes on a real row");
    std::swap(row.cycles[kVarLogPSf], row.cycles[kVarSp256]);
    std::string why = checkGridRow(row);
    expect(!why.empty(),
           "grid check fails with Log+P+Sf and SP256 cycles swapped (" +
               why + ")");
}

} // namespace

int
main()
{
    imageCheck();
    escapeCheck();
    gridCheck();
    std::printf("%s\n", g_failures ? "selftest FAILED" : "selftest passed");
    return g_failures ? 1 : 0;
}
