/**
 * @file
 * End-to-end benchmark of the SP simulator, one workload per process.
 *
 *   spbench --workload {paper_grid|observed_bt|fault_campaign}
 *           --seed N --seconds S --trace {0|1}
 *           [--revision R] [--span-dir DIR]
 *   spbench --workload observed_bt --seed N
 *           --side-run {none|trace|audit|account}   (used by --trace 1)
 *
 * Workloads (inputs are pinned here and derived from --seed only; the
 * SP_OPS/SP_INIT/SP_SEED/SP_JOBS overrides of the bench harness are never
 * consulted, and every run is one simulation thread):
 *
 *  - paper_grid: Figure 8's grid, the 7 Table 1 structures x {None, Log,
 *    Log+P, Log+P+Sf, SP256} at bench-default op counts, no observers.
 *  - observed_bt: one long BT Log+P+Sf SP run (12000 ops) with the
 *    tracer (all categories), the durability audit and the cycle
 *    accountant attached.
 *  - fault_campaign: the campaign structures with checksums on; crash
 *    runs (log-spaced crash points, torn writes, write jitter, a seeded
 *    media-fault plan, hardened recovery incl. interrupted schedules,
 *    functional replay) and conflict runs (uniform probe adversary,
 *    watchdog armed).
 *
 * With --trace 0 the benchmark repeats whole rounds of its workload until
 * --seconds have passed (at least one round) and prints the end-to-end
 * metrics, taken over all rounds. With --trace 1 it runs one round with
 * spans recorded around every call into a layer, plus the per-layer side
 * measurements, and prints the per-layer metrics, each layer's self time
 * and the tracing overhead against one untraced round run in a child
 * process.
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed, metrics. Exit status 1 when any correctness check failed, 2 on
 * a usage error.
 */

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hh"
#include "core/bloom_filter.hh"
#include "core/blt.hh"
#include "core/ssb.hh"
#include "harness/campaign.hh"
#include "harness/machine.hh"
#include "harness/report.hh"
#include "mem/cache.hh"
#include "sim/fault.hh"
#include "spans.hh"
#include "steer.hh"

// --------------------------------------------------------------------------
// Heap-allocation counter: interposed for the whole process (the simulator
// library included). One simulation thread, so counts are deterministic.
// --------------------------------------------------------------------------

static std::atomic<uint64_t> g_allocations{0};

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace sp;
using namespace spbench;

/** Taken during static initialisation: set-up is timed from here. */
const Clock::time_point g_processStart = Clock::now();

uint64_t
allocations()
{
    return g_allocations.load(std::memory_order_relaxed);
}

// --------------------------------------------------------------------------
// Pinned inputs
// --------------------------------------------------------------------------

/** Bench-default op counts (defaultParams at scale 1), pinned here. */
WorkloadParams
gridParams(WorkloadKind kind, uint64_t seed)
{
    WorkloadParams p;
    p.seed = seed;
    switch (kind) {
      case WorkloadKind::kGraph:
        p.initOps = 80000;
        p.simOps = 1000;
        break;
      case WorkloadKind::kHashMap:
        p.initOps = 100000;
        p.simOps = 1000;
        break;
      case WorkloadKind::kLinkedList:
        p.initOps = 3000;
        p.simOps = 800;
        break;
      case WorkloadKind::kStringSwap:
        p.initOps = 2000;
        p.simOps = 1500;
        break;
      default: // the three trees
        p.initOps = 60000;
        p.simOps = 500;
        break;
    }
    return p;
}

RunConfig
gridConfig(WorkloadKind kind, unsigned variant, uint64_t seed)
{
    static const PersistMode modes[kNumVariants] = {
        PersistMode::kNone, PersistMode::kLog, PersistMode::kLogP,
        PersistMode::kLogPSf, PersistMode::kLogPSf};
    RunConfig cfg;
    cfg.kind = kind;
    cfg.params = gridParams(kind, seed);
    cfg.params.mode = modes[variant];
    cfg.sim.sp.enabled = variant == kVarSp256;
    cfg.sim.sp.ssbEntries = 256;
    return cfg;
}

constexpr uint64_t kObservedSimOps = 12000;

RunConfig
observedConfig(uint64_t seed, bool trace, bool audit, bool account)
{
    RunConfig cfg = gridConfig(WorkloadKind::kBTree, kVarSp256, seed);
    cfg.params.simOps = kObservedSimOps;
    cfg.trace.categories = trace ? static_cast<uint32_t>(kTraceAll) : 0u;
    cfg.audit.enabled = audit;
    cfg.account.enabled = account;
    return cfg;
}

// Fault campaign inputs.
constexpr uint64_t kFcInitOps = 250;
constexpr uint64_t kFcSimOps = 25;
constexpr unsigned kFcCrashPoints = 6;
constexpr unsigned kFcInterruptedDraws = 2;
constexpr unsigned kFcMediaFaults = 3;
constexpr double kFcSilentFraction = 0.5;
constexpr unsigned kFcRecoveryRetries = 2;
constexpr unsigned kFcJitterCycles = 64;
const Tick kFcConflictPeriods[] = {400, 4000};
constexpr Tick kFcMaxCyclesFactor = 50;
/**
 * Workload and media seed of the media-fault runs. Hardened recovery lets
 * silent escapes through on some seeds (see perfbench/README.md), so the
 * media runs use fixed inputs: on these, exactly one run (BT, 5th crash
 * point) fails the zero-silent-escape check in every round, and is
 * counted in `failed`.
 */
constexpr uint64_t kFcMediaSeed = 4;
/** Probes land uniformly on the metadata and the head of the undo log,
 *  which every transaction writes speculatively. */
constexpr uint64_t kFcConflictFootprint = 8 * 1024;

RunConfig
campaignBase(WorkloadKind kind, uint64_t seed)
{
    RunConfig cfg;
    cfg.kind = kind;
    cfg.params.seed = seed;
    cfg.params.initOps = kFcInitOps;
    cfg.params.simOps = kFcSimOps;
    cfg.params.mode = PersistMode::kLogPSf;
    cfg.params.checksums = true;
    cfg.sim.sp.enabled = true;
    return cfg;
}

/** The process's one simulation thread, kept on the quietest CPU. */
CoreSteering g_steer;

/** References captured for the component timings, across all cells. */
constexpr size_t kRefCap = size_t(1) << 20;

/** Machine::runUntil is called in chunks of this many cycles (a few ms
 *  to a tenth of a second of host time). */
constexpr Tick kRunChunk = 100000;

// --------------------------------------------------------------------------
// Per-round accounting
// --------------------------------------------------------------------------

/** What one round measured (its own runs only, not side measurements). */
struct Round
{
    unsigned runs = 0;
    double ctorS = 0;   ///< Machine constructors
    double runS = 0;    ///< Machine::runUntil
    double finishS = 0; ///< Machine::finish (+ teardown)
    double crashRunS = 0;
    double recoverS = 0;
    double mediaS = 0;
    double replayS = 0;
    double imageS = 0; ///< MemImage copies and hashes
    double checkS = 0; ///< the benchmark's own checks
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t doneCycles = 0;
    uint64_t doneOps = 0;
    /** Allocations and cycles of the runs after the round's first (of
     *  the first run when it is the only one). */
    uint64_t steadyAllocs = 0;
    uint64_t steadyCycles = 0;
    uint64_t transHits = 0;
    uint64_t transLookups = 0;
    Stats sum;
    std::vector<double> spRatios; ///< cycles(SP off) / cycles(SP on)
    std::vector<GridRow> gridRows; ///< paper_grid only
    // Fault-campaign recovery reports (faulted images).
    uint64_t linesRepaired = 0;
    uint64_t linesDegraded = 0;
    uint64_t recoveryRetries = 0;
    /** Process peak resident set when the round ended. */
    double peakRssMiB = 0;

    double simS() const { return runS + finishS; }
    double wallS() const
    {
        return runS + finishS + recoverS + mediaS + replayS + imageS;
    }
};

void
addStats(Stats &a, const Stats &b)
{
    a.cycles += b.cycles;
    a.instructions += b.instructions;
    a.pcommits += b.pcommits;
    a.fetchQueueStallCycles += b.fetchQueueStallCycles;
    a.fenceStallCycles += b.fenceStallCycles;
    a.ssbFullStallCycles += b.ssbFullStallCycles;
    a.checkpointStallCycles += b.checkpointStallCycles;
    a.storeBufferStallCycles += b.storeBufferStallCycles;
    a.l1dMisses += b.l1dMisses;
    a.l2Misses += b.l2Misses;
    a.l3Misses += b.l3Misses;
    a.wpqInserts += b.wpqInserts;
    a.wpqCoalesced += b.wpqCoalesced;
    a.nvmmWrites += b.nvmmWrites;
    a.nvmmReads += b.nvmmReads;
    a.epochsCommitted += b.epochsCommitted;
    a.aborts += b.aborts;
    a.bloomLookups += b.bloomLookups;
    a.bloomFalsePositives += b.bloomFalsePositives;
    a.ssbForwards += b.ssbForwards;
    a.watchdogDegradations += b.watchdogDegradations;
}

/** Side measurements of the traced round. */
struct LayerExtras
{
    double setupS = 0; ///< Workload::setup on twins
    double drainS = 0; ///< Program::next drains on twins
    uint64_t drainInstructions = 0;
    double drainedRunS = 0; ///< runUntil of the runs that have a drain
    uint64_t drainedCycles = 0;
    double buildS = 0; ///< Machine assembly without setup, on twins
    std::vector<MemRef> refs;  ///< SP cells' memory references
    std::map<std::string, double> direct; ///< directly set metrics
};

struct Ctx
{
    explicit Ctx(uint64_t s) : seed(s) {}

    uint64_t seed;
    SpanRecorder spans{false};
    bool traced = false;
    bool recordConfigs = true;
    Round round;
    LayerExtras extra;
    std::vector<std::string> configs;
    std::vector<std::string> failures;
    /** observed_bt's functional reference: the same in every round. */
    std::unique_ptr<Workload> observedRef;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** A check on a run's output: any failure makes the result incorrect. */
    void
    check(const std::string &what, const std::string &why)
    {
        if (!why.empty() && failures.size() < 20)
            failures.push_back("CHECK FAILED: " + what + ": " + why);
        incorrect |= !why.empty();
    }

    /**
     * A run whose operation broke its contract (a silent media escape):
     * counted in `failed`; `correct` speaks of the runs that did not fail.
     */
    void
    failRun(const std::string &what, const std::string &why)
    {
        ++failed;
        if (failures.size() < 20)
            failures.push_back("FAILED RUN: " + what + ": " + why);
    }

    bool incorrect = false;
};

// --------------------------------------------------------------------------
// Running one machine
// --------------------------------------------------------------------------

/** A second workload instance of the same config, timed layer by layer. */
struct Twin
{
    std::unique_ptr<Workload> w;
    double setupS = 0;
    double drainS = 0;
    bool drained = false;
};

/**
 * Time the layers the Machine constructor and runUntil combine, on a
 * second instance of `cfg`'s workload: setup() alone, the constructor's
 * own assembly (a deferred-setup Machine plus the copy of the populated
 * image it takes as the initial durable image) and, with `drain`, the op
 * stream emitted with no core.
 */
Twin
makeTwin(Ctx &c, const RunConfig &cfg, bool drain, bool captureRefs)
{
    Scope side(c.spans, "twin " + describeRunConfig(cfg), kSideLayer);
    Twin t;
    t.w = makeWorkload(cfg.kind, cfg.params);
    {
        Scope s(c.spans, "Workload::setup (twin)", "workloads", &t.setupS);
        t.w->setup();
    }
    {
        Scope s(c.spans, "Machine::Machine (deferred setup)", "harness",
                &c.extra.buildS);
        Machine assembly(cfg, nullptr, true);
    }
    {
        Scope s(c.spans, "MemImage copy (initial durable image)", "mem",
                &c.extra.buildS);
        MemImage durable = t.w->image();
    }
    if (drain) {
        Scope s(c.spans, "Program::next drain (twin)", "workloads",
                &t.drainS);
        c.extra.drainInstructions += drainProgram(
            *t.w, captureRefs ? &c.extra.refs : nullptr, kRefCap);
        t.drained = true;
    }
    c.extra.setupS += t.setupS;
    c.extra.drainS += t.drainS;
    return t;
}

struct MachineRun
{
    RunResult result;
    double ctorS = 0;
    double runS = 0;
    double finishS = 0;
    uint64_t allocs = 0;
    int runSpan = -1;
    /** Traced round only: the twin (a drained twin is the functional
     *  reference of this configuration). */
    Twin twin;
};

/** What the traced round does with a run's twin op stream. */
enum class Drain
{
    kNo,
    kYes,
    /** Drain and keep its memory references for the component timings. */
    kCapture,
};

/**
 * Construct, run and finish one Machine, timing each call. `own` runs
 * are the workload's own work and are tallied into the round; side runs
 * of the traced round (observer twins) are not.
 */
MachineRun
runMachine(Ctx &c, const RunConfig &cfg, Tick crashAt = 0,
           Drain drain = Drain::kNo, bool own = true)
{
    MachineRun m;
    const Twin *twin = nullptr;
    if (c.traced && own) {
        m.twin = makeTwin(c, cfg, drain != Drain::kNo,
                          drain == Drain::kCapture);
        twin = &m.twin;
    }
    if (own) {
        ++c.attempted;
        if (c.recordConfigs) {
            c.configs.push_back(
                describeRunConfig(cfg) +
                (crashAt ? " crashAt=" + std::to_string(crashAt) : ""));
        }
    }
    g_steer.maybeSteer();
    uint64_t a0 = allocations();
    std::unique_ptr<Machine> machine;
    {
        Scope s(c.spans, "Machine::Machine", "harness", &m.ctorS);
        machine = std::make_unique<Machine>(cfg);
        s.stop();
        if (twin) {
            c.spans.derived(s.id(), "Workload::setup (inside Machine)",
                            "workloads", twin->setupS);
        }
    }
    {
        // In chunks, so that the thread can move to a quieter CPU between
        // them; the probes are not counted in runUntil's time.
        const Tick limit = crashAt ? crashAt : kTickNever;
        const Tick maxCycles = cfg.sim.maxCycles;
        double steerS = 0;
        Scope s(c.spans, "Machine::runUntil", "cpu", &m.runS);
        for (;;) {
            Tick chunkEnd = std::min(limit, machine->now() + kRunChunk);
            if (machine->runUntil(chunkEnd) || machine->now() < chunkEnd ||
                (maxCycles && machine->now() > maxCycles) ||
                chunkEnd == limit) {
                break;
            }
            if (g_steer.due()) {
                Scope probe(c.spans, "CPU probe", kSideLayer);
                steerS += g_steer.maybeSteer();
            }
        }
        s.stop();
        m.runS -= steerS;
        m.runSpan = s.id();
        if (twin && twin->drained) {
            c.spans.derived(s.id(), "Program::next (inside runUntil)",
                            "workloads", twin->drainS);
        }
    }
    g_steer.maybeSteer();
    {
        Scope s(c.spans, "Machine::finish", "harness", &m.finishS);
        m.result = machine->finish(crashAt);
        machine.reset();
    }
    m.allocs = allocations() - a0;
    if (twin && twin->drained) {
        c.extra.drainedRunS += m.runS;
        c.extra.drainedCycles += m.result.stats.cycles;
    }
    if (!own)
        return m;

    Round &r = c.round;
    ++r.runs;
    r.ctorS += m.ctorS;
    r.runS += m.runS;
    r.finishS += m.finishS;
    if (m.result.outcome == RunOutcome::kCrashed)
        r.crashRunS += m.runS;
    const Stats &st = m.result.stats;
    r.cycles += st.cycles;
    r.instructions += st.instructions;
    if (m.result.completed) {
        r.doneCycles += st.cycles;
        r.doneOps += cfg.params.simOps;
    }
    if (r.runs == 2) {
        r.steadyAllocs = 0;
        r.steadyCycles = 0;
    }
    r.steadyAllocs += m.allocs;
    r.steadyCycles += st.cycles;
    const PerfTelemetry &p = m.result.perf;
    r.transHits += p.volatileTransHits + p.durableTransHits;
    r.transLookups += p.volatileTransHits + p.durableTransHits +
        p.volatileTransMisses + p.durableTransMisses;
    addStats(r.sum, st);
    return m;
}

uint64_t
hashImage(Ctx &c, const MemImage &img)
{
    Scope s(c.spans, "MemImage::hash", "mem", &c.round.imageS);
    return img.hash();
}

MemImage
copyImage(Ctx &c, const MemImage &img)
{
    Scope s(c.spans, "MemImage copy", "mem", &c.round.imageS);
    return img;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double logSum = 0;
    for (double x : v)
        logSum += std::log(x);
    return std::exp(logSum / static_cast<double>(v.size()));
}

// --------------------------------------------------------------------------
// paper_grid
// --------------------------------------------------------------------------

void
paperGridRound(Ctx &c)
{
    for (WorkloadKind kind : allWorkloadKinds()) {
        GridRow row;
        row.kind = kind;
        // Untraced rounds check every cell against one functional
        // reference per structure; the traced round drains a twin of
        // every cell (it needs their timings anyway) and checks the cell
        // against its own twin.
        std::unique_ptr<Workload> ref;
        Contents refContents;
        if (!c.traced) {
            Scope s(c.spans, "functional reference", "bench",
                    &c.round.checkS);
            ref = makeWorkload(kind, gridConfig(kind, kVarLogPSf, c.seed)
                                         .params);
            ref->setup();
            drainProgram(*ref);
            refContents = ref->contents(ref->image());
        }
        for (unsigned v = 0; v < kNumVariants; ++v) {
            RunConfig cfg = gridConfig(kind, v, c.seed);
            MachineRun m = runMachine(
                c, cfg, 0, v == kVarSp256 ? Drain::kCapture : Drain::kYes);
            row.cycles[v] = m.result.stats.cycles;
            row.instructions[v] = m.result.stats.instructions;

            Scope s(c.spans, "check cell", "bench", &c.round.checkS);
            row.durableHash[v] = m.result.durable.hash();
            std::string what = describeRunConfig(cfg);
            if (!m.result.completed) {
                c.check(what, "run did not complete");
                continue;
            }
            const Workload &w = c.traced ? *m.twin.w : *ref;
            if (c.traced)
                refContents = w.contents(w.image());
            c.check(what,
                    checkImageContents(w, m.result.durable, refContents));
        }
        Scope s(c.spans, "check grid row", "bench", &c.round.checkS);
        c.check(workloadKindName(kind), checkGridRow(row));
        c.round.gridRows.push_back(row);
        if (row.cycles[kVarSp256] > 0) {
            c.round.spRatios.push_back(
                static_cast<double>(row.cycles[kVarLogPSf]) /
                static_cast<double>(row.cycles[kVarSp256]));
        }
    }
}

// --------------------------------------------------------------------------
// observed_bt
// --------------------------------------------------------------------------

/** Stats and durable image of a run, as one comparable digest. */
uint64_t
fingerprintHash(const RunResult &r)
{
    return std::hash<std::string>()(statsCsvRow("", r.stats) + "|" +
                                    std::to_string(r.durable.hash()));
}

/** A child process running this binary, its stdout on a pipe. */
struct Child
{
    pid_t pid = -1;
    int fd = -1;
    std::string what;
};

/**
 * Start this binary again with `args`. Fresh processes keep timed runs
 * from inheriting each other's heap state, which moves their host time
 * by tens of percent.
 */
Child
startSelf(const std::vector<std::string> &args)
{
    Child ch;
    ch.what = args.back();
    // Children start from the whole affinity mask, not this thread's pin.
    g_steer.release();
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    std::string self = "/proc/self/exe";
    std::vector<std::string> copy = args;
    std::vector<char *> argv{self.data()};
    for (std::string &a : copy)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    int rc = posix_spawn(&ch.pid, self.c_str(), &fa, nullptr, argv.data(),
                         environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    if (rc != 0) {
        close(fds[0]);
        throw std::runtime_error("cannot start child run " + ch.what);
    }
    ch.fd = fds[0];
    return ch;
}

/**
 * Read the child's stdout to the end and reap it.
 *
 * @retval false the child failed; `out` holds what it printed.
 */
bool
finishSelf(Child &ch, std::string *out)
{
    char buf[4096];
    ssize_t n;
    while ((n = read(ch.fd, buf, sizeof(buf))) > 0)
        out->append(buf, static_cast<size_t>(n));
    close(ch.fd);
    int status = 0;
    pid_t got = waitpid(ch.pid, &status, 0);
    return got == ch.pid && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/** Timings of one observer variant of the observed_bt run. */
struct SideRun
{
    double runS = 0;
    double finishS = 0;
    unsigned long long allocs = 0;
    unsigned long long cycles = 0;
    unsigned long long fingerprint = 0;
};

RunConfig
observerVariant(uint64_t seed, const std::string &observers)
{
    return observedConfig(seed, observers == "trace", observers == "audit",
                          observers == "account");
}

/** --side-run: one observer variant, printed for the parent to parse. */
int
sideRunMain(uint64_t seed, const std::string &observers)
{
    Ctx c(seed);
    MachineRun m = runMachine(c, observerVariant(seed, observers), 0,
                              Drain::kNo, false);
    std::printf("side-run: %.17g %.17g %llu %llu %llu\n", m.runS, m.finishS,
                static_cast<unsigned long long>(m.allocs),
                static_cast<unsigned long long>(m.result.stats.cycles),
                static_cast<unsigned long long>(fingerprintHash(m.result)));
    return 0;
}

/**
 * The observed_bt configuration with no observer and with each observer
 * alone, each in its own process, one after another. Each steers itself
 * onto the quietest CPU; run at the same time, they would each get a CPU
 * slowed by a different amount.
 */
std::map<std::string, SideRun>
observerSplit(uint64_t seed)
{
    const char *variants[] = {"none", "trace", "audit", "account"};
    std::vector<Child> children;
    std::vector<std::string> texts(std::size(variants));
    for (size_t i = 0; i < std::size(variants); ++i) {
        children.push_back(startSelf({"--workload", "observed_bt", "--seed",
                                      std::to_string(seed), "--side-run",
                                      variants[i]}));
        if (!finishSelf(children.back(), &texts[i]))
            throw std::runtime_error("an observer side run failed");
    }
    std::map<std::string, SideRun> out;
    for (size_t i = 0; i < children.size(); ++i) {
        const std::string &text = texts[i];
        const std::string &what = children[i].what;
        SideRun &r = out[what];
        size_t at = text.rfind("side-run: ");
        if (at == std::string::npos ||
            std::sscanf(text.c_str() + at, "side-run: %lf %lf %llu %llu %llu",
                        &r.runS, &r.finishS, &r.allocs, &r.cycles,
                        &r.fingerprint) != 5) {
            throw std::runtime_error("unparsable side run: " + what);
        }
    }
    return out;
}

void
observedRound(Ctx &c)
{
    RunConfig cfg = observedConfig(c.seed, true, true, true);
    if (!c.traced && !c.observedRef) {
        Scope s(c.spans, "functional reference", "bench", &c.round.checkS);
        c.observedRef = makeWorkload(cfg.kind, cfg.params);
        c.observedRef->setup();
        drainProgram(*c.observedRef);
    }
    MachineRun m = runMachine(c, cfg, 0, Drain::kYes);
    {
        Scope s(c.spans, "check observed run", "bench", &c.round.checkS);
        std::string what = describeRunConfig(cfg);
        const Workload &w = c.traced ? *m.twin.w : *c.observedRef;
        if (!m.result.completed)
            c.check(what, "run did not complete");
        c.check(what,
                checkImageContents(w, m.result.durable,
                                   w.contents(w.image())));
        if (!m.result.audit.clean()) {
            c.check(what,
                    "audit reported " +
                        std::to_string(m.result.audit.violationEdges) +
                        " violation edges");
        }
        if (!m.result.account.selfConsistent())
            c.check(what, "cycle account not self-consistent");
    }
    if (!c.traced)
        return;

    // Observer split: the same configuration with no observer, then with
    // each observer alone, each in a fresh process so no run inherits
    // another's heap.
    Scope side(c.spans, "observer split", kSideLayer);
    std::map<std::string, SideRun> split = observerSplit(c.seed);
    side.stop();
    const SideRun &bare = split["none"];
    const SideRun &tr = split["trace"];
    const SideRun &au = split["audit"];
    const SideRun &ac = split["account"];
    std::map<std::string, double> &d = c.extra.direct;
    d["sim.unobserved_s"] = bare.runS + bare.finishS;
    d["sim.trace_s"] = tr.runS - bare.runS;
    d["sim.audit_s"] = au.runS - bare.runS;
    d["sim.account_s"] = ac.runS - bare.runS;
    double kcycles = static_cast<double>(m.result.stats.cycles) / 1000.0;
    d["sim.observer_allocs_per_kcycle"] =
        (static_cast<double>(m.allocs) - static_cast<double>(bare.allocs)) /
        kcycles;
    const SpeculationLedger &led = m.result.account.ledger;
    d["sim.hidden_share"] = led.barrierCycles
        ? static_cast<double>(led.hiddenCycles) /
            static_cast<double>(led.barrierCycles)
        : 0.0;
    // The core-only cost is the unobserved run minus the emitter drain.
    d["cpu.ns_per_sim_cycle"] = ratio((bare.runS - m.twin.drainS) * 1e9,
                                      static_cast<double>(bare.cycles));
    // Inside the observed runUntil, the observers' share is derived.
    c.spans.derived(m.runSpan, "observers (inside runUntil)", "sim",
                    m.runS - bare.runS);

    Scope s(c.spans, "check observer twin", "bench", &c.round.checkS);
    if (fingerprintHash(m.result) != bare.fingerprint) {
        c.check(describeRunConfig(cfg),
                "Stats or durable hash differ from the unobserved twin");
    }
}

// --------------------------------------------------------------------------
// fault_campaign
// --------------------------------------------------------------------------

RecoveryOptions
recoveryOptions()
{
    RecoveryOptions opts;
    opts.checksums = true;
    opts.maxRetries = kFcRecoveryRetries;
    return opts;
}

RecoveryReport
recover(Ctx &c, MemImage &img)
{
    Scope s(c.spans, "recoverImageHardened", "pmem", &c.round.recoverS);
    return recoverImageHardened(img, recoveryOptions());
}

/**
 * One crash run: crash at `crashAt`, recover the crash image (pristine,
 * again on the recovered image, and under interrupted schedules), replay
 * the workload functionally to the recovered generation and compare.
 * With `mediaSeed` != 0, a seeded media-fault plan also corrupts a twin
 * of the crash image, which hardened recovery must repair or report.
 */
void
crashRun(Ctx &c, const RunConfig &cfg, Tick crashAt, uint64_t refGeneration,
         uint64_t mediaSeed)
{
    MachineRun m = runMachine(c, cfg, crashAt);
    if (m.result.outcome != RunOutcome::kCrashed)
        return; // the run ended before its crash point: nothing to recover
    std::string what = describeRunConfig(cfg) + " crashAt=" +
        std::to_string(crashAt);
    const MemImage &crashed = m.result.durable;

    // Pristine recovery: the oracle for the replay and escape checks.
    MemImage clean = copyImage(c, crashed);
    RecoveryReport rep = recover(c, clean);
    uint64_t gen = Workload::generation(clean);
    uint64_t cleanHash = hashImage(c, clean);

    // Recovering an already-recovered image changes nothing.
    MemImage again = copyImage(c, clean);
    recover(c, again);
    uint64_t againHash = hashImage(c, again);

    // Interrupted schedules (a crash during recovery, then another during
    // the retry) must converge to the uninterrupted result.
    std::vector<uint64_t> interruptedHashes;
    for (unsigned draw = 1; draw <= kFcInterruptedDraws; ++draw) {
        MemImage partial = copyImage(c, crashed);
        unsigned k = rep.entriesApplied * draw / (kFcInterruptedDraws + 1);
        {
            Scope s(c.spans, "recoverImageHardenedInterrupted", "pmem",
                    &c.round.recoverS);
            recoverImageHardenedInterrupted(partial, k, recoveryOptions());
            if (k > 1) {
                recoverImageHardenedInterrupted(partial, k / 2,
                                                recoveryOptions());
            }
        }
        recover(c, partial);
        interruptedHashes.push_back(hashImage(c, partial));
    }

    // Functional replay to the recovered transaction boundary.
    std::unique_ptr<Workload> replay;
    Contents expected;
    {
        Scope s(c.spans, "functional replay", "workloads", &c.round.replayS);
        replay = makeWorkload(cfg.kind, cfg.params);
        replay->setup();
        replay->runFunctionalToGeneration(gen);
        expected = replay->contents(replay->image());
    }

    {
        Scope s(c.spans, "check crash run", "bench", &c.round.checkS);
        if (rep.verdict == RecoveryVerdict::kUnrecoverable)
            c.check(what, "pristine crash image unrecoverable");
        if (gen > refGeneration)
            c.check(what, "recovered generation beyond the reference run's");
        c.check(what, checkImageContents(*replay, clean, expected));
        if (againHash != cleanHash)
            c.check(what, "recovering a recovered image changed it");
        for (uint64_t h : interruptedHashes) {
            if (h != cleanHash)
                c.check(what, "interrupted recovery diverged");
        }
    }
    if (mediaSeed == 0)
        return;

    // Media faults on a twin of the same crash image.
    MemImage faulted = copyImage(c, crashed);
    {
        Scope s(c.spans, "planMediaFaults+applyMediaFaults", "sim",
                &c.round.mediaS);
        MediaFaultConfig mcfg;
        mcfg.enabled = true;
        mcfg.faults = kFcMediaFaults;
        mcfg.silentFraction = kFcSilentFraction;
        mcfg.seed = mediaSeed;
        MediaFaultPlan plan =
            planMediaFaults(mcfg, faulted, m.result.stats.cycles);
        applyMediaFaults(faulted, plan);
    }
    RecoveryReport repF = recover(c, faulted);
    c.round.linesRepaired += repF.linesRepaired;
    c.round.linesDegraded += repF.degradedLines.size();
    c.round.recoveryRetries += repF.retries;

    // An unrecoverable verdict is loud: nothing escaped silently.
    Scope s(c.spans, "check media faults", "bench", &c.round.checkS);
    if (repF.verdict != RecoveryVerdict::kUnrecoverable) {
        uint64_t escapes = countSilentEscapes(faulted, clean, repF);
        if (escapes) {
            c.failRun(what + " mseed=" + std::to_string(mediaSeed),
                      std::to_string(escapes) + " silent media escapes");
        }
    }
}

/** SP-on reference run of `base`; false (and a failed check) if it did
 *  not complete. */
bool
referenceRun(Ctx &c, const RunConfig &base, MachineRun *out)
{
    *out = runMachine(c, base);
    if (!out->result.completed)
        c.check(describeRunConfig(base), "reference run did not complete");
    return out->result.completed;
}

/** Log-spaced crash points over [64, refCycles - 1]. */
Tick
crashPoint(Tick refCycles, unsigned i)
{
    double lo = std::log(64.0);
    double hi = std::log(static_cast<double>(
        refCycles > 65 ? refCycles - 1 : 65));
    return static_cast<Tick>(
        std::exp(lo + (hi - lo) * i / (kFcCrashPoints - 1)));
}

RunConfig
crashConfig(const RunConfig &base, uint64_t seed, uint64_t cell)
{
    RunConfig cfg = base;
    cfg.sim.fault.crash.tornWrites = true;
    cfg.sim.fault.crash.pcommitJitterCycles = kFcJitterCycles;
    cfg.sim.fault.crash.seed = seed * 1000003 + cell;
    return cfg;
}

void
faultCampaignRound(Ctx &c)
{
    const std::vector<WorkloadKind> kinds = campaignWorkloads();
    for (size_t ki = 0; ki < kinds.size(); ++ki) {
        RunConfig base = campaignBase(kinds[ki], c.seed);
        MachineRun ref;
        if (!referenceRun(c, base, &ref))
            continue;
        RunConfig golden = base;
        golden.sim.sp.enabled = false;
        MachineRun gold = runMachine(c, golden);
        uint64_t goldenHash = hashImage(c, gold.result.durable);
        if (!gold.result.completed) {
            c.check(describeRunConfig(golden), "SP-off run did not complete");
            continue;
        }
        c.round.spRatios.push_back(
            static_cast<double>(gold.result.stats.cycles) /
            static_cast<double>(ref.result.stats.cycles));

        Tick refCycles = ref.result.stats.cycles;
        for (unsigned i = 0; i < kFcCrashPoints; ++i) {
            crashRun(c, crashConfig(base, c.seed, ki * 100 + i),
                     crashPoint(refCycles, i),
                     ref.result.functionalGeneration, 0);
        }

        for (size_t pi = 0; pi < std::size(kFcConflictPeriods); ++pi) {
            RunConfig cfg = base;
            ConflictInjectConfig &cc = cfg.sim.fault.conflict;
            cc.enabled = true;
            cc.policy = ConflictPolicy::kUniform;
            cc.timing = ConflictTiming::kPoisson;
            cc.period = kFcConflictPeriods[pi];
            cc.seed = c.seed * 1000003 + ki * 100 + 50 + pi;
            cc.footprintBase = kMetaBase;
            cc.footprintBytes = kFcConflictFootprint;
            cfg.sim.fault.watchdog = WatchdogConfig{true, 4, 256, 16384, 8};
            cfg.sim.maxCycles = refCycles * kFcMaxCyclesFactor;
            MachineRun m = runMachine(c, cfg);
            uint64_t h = hashImage(c, m.result.durable);
            Scope s(c.spans, "check conflict run", "bench", &c.round.checkS);
            if (!m.result.completed) {
                c.check(describeRunConfig(cfg),
                        std::string("did not complete: ") +
                            runOutcomeName(m.result.outcome));
            } else if (h != goldenHash) {
                c.check(describeRunConfig(cfg),
                        "durable hash differs from the SP-off run");
            }
        }
    }

    // Media-fault runs, on inputs fixed independently of --seed (see
    // kFcMediaSeed): the same crash grid with a media-fault plan per
    // crash image.
    for (size_t ki = 0; ki < kinds.size(); ++ki) {
        RunConfig base = campaignBase(kinds[ki], kFcMediaSeed);
        MachineRun ref;
        if (!referenceRun(c, base, &ref))
            continue;
        for (unsigned i = 0; i < kFcCrashPoints; ++i) {
            uint64_t cell = ki * 100 + i;
            crashRun(c, crashConfig(base, kFcMediaSeed, cell),
                     crashPoint(ref.result.stats.cycles, i),
                     ref.result.functionalGeneration,
                     kFcMediaSeed * 2000003 + cell);
        }
    }
}

// --------------------------------------------------------------------------
// Component timings (traced paper_grid): the SP structures and one cache
// level driven directly over the SP256 cells' memory references.
// --------------------------------------------------------------------------

/** Keeps the component probes' answers live. */
volatile uint64_t g_sink = 0;

/** ns per reference of `pass`, repeated until at least 0.2 s. */
template <typename Fn>
double
nsPerRef(Ctx &c, const char *name, const char *layer, size_t refs, Fn &&pass)
{
    if (refs == 0)
        return 0;
    Scope s(c.spans, name, layer);
    auto t0 = Clock::now();
    uint64_t done = 0;
    do {
        pass();
        done += refs;
    } while (secondsSince(t0) < 0.2);
    return secondsSince(t0) * 1e9 / static_cast<double>(done);
}

void
componentTimings(Ctx &c)
{
    Scope side(c.spans, "component timings", kSideLayer);
    const std::vector<MemRef> &refs = c.extra.refs;
    std::map<std::string, double> &d = c.extra.direct;
    const SimConfig sim;
    uint64_t sink = 0;

    BloomFilter bloom(sim.sp.bloomBytes, sim.sp.bloomHashes);
    d["core.bloom_probe_ns"] =
        nsPerRef(c, "BloomFilter insert/maybeContains", "core",
                 refs.size(), [&] {
                     for (const MemRef &r : refs) {
                         if (r.kind == 'S')
                             bloom.insert(r.addr);
                         else if (r.kind == 'L')
                             sink += bloom.maybeContains(r.addr);
                         else
                             bloom.reset();
                     }
                 });

    SpeculativeStoreBuffer ssb(256);
    uint64_t epoch = 0;
    d["core.ssb_search_ns"] =
        nsPerRef(c, "SpeculativeStoreBuffer push/searchForLoad", "core",
                 refs.size(), [&] {
                     for (const MemRef &r : refs) {
                         if (r.kind == 'S') {
                             if (ssb.full())
                                 ssb.pop();
                             SsbEntry e;
                             e.type = SsbEntryType::kStore;
                             e.size = r.size;
                             e.epoch = epoch;
                             e.addr = r.addr;
                             ssb.push(e);
                         } else if (r.kind == 'L') {
                             sink += ssb.searchForLoad(r.addr, r.size);
                         } else {
                             ssb.clear();
                             ++epoch;
                         }
                     }
                     ssb.clear();
                 });

    BlockLookupTable blt;
    d["core.blt_probe_ns"] =
        nsPerRef(c, "BlockLookupTable record/probe", "core", refs.size(),
                 [&] {
                     for (const MemRef &r : refs) {
                         if (r.kind == 'L')
                             blt.record(r.addr);
                         else if (r.kind == 'S')
                             sink += blt.probe(r.addr);
                         else
                             blt.clear();
                     }
                 });

    Cache l1("L1D", sim.l1d);
    Cache::Victim victim;
    d["mem.cache_access_ns"] =
        nsPerRef(c, "Cache find/allocate", "mem", refs.size(), [&] {
            for (const MemRef &r : refs) {
                if (r.kind == 'F')
                    continue;
                if (!l1.find(r.addr))
                    l1.allocate(r.addr, &victim);
            }
        });
    g_sink = sink;
}

// --------------------------------------------------------------------------
// Reporting
// --------------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

double
peakRssMiB()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Figure 8's geomean row: overhead of each variant over None. */
void
printFigure8(const Round &r)
{
    if (r.gridRows.empty())
        return;
    std::printf("figure8 geomean overhead over None:");
    for (unsigned v = kVarLog; v < kNumVariants; ++v) {
        std::vector<double> ratios;
        for (const GridRow &row : r.gridRows) {
            ratios.push_back(static_cast<double>(row.cycles[v]) /
                             static_cast<double>(row.cycles[kVarNone]));
        }
        std::printf(" %s %+.1f%%", variantName(v),
                    100.0 * (geomean(ratios) - 1.0));
    }
    std::printf("\n");
}

void
printResult(const Ctx &c, const std::vector<Metric> &metrics)
{
    for (const std::string &f : c.failures)
        std::printf("%s\n", f.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                c.incorrect ? "false" : "true",
                static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
}

/**
 * The end-to-end metrics of an untraced run. Host times are taken over
 * every round of the run (wall_s per round, rates as total work over
 * total time): the host's speed drifts over tens of seconds, so the
 * whole measured window is a steadier sample than any one round of it.
 */
std::vector<Metric>
endToEnd(const std::vector<Round> &rounds, double preRoundS)
{
    double wallS = 0, simS = 0, instructions = 0, cycles = 0;
    for (const Round &r : rounds) {
        wallS += r.wallS();
        simS += r.simS();
        instructions += static_cast<double>(r.instructions);
        cycles += static_cast<double>(r.cycles);
    }
    const Round &first = rounds.front();
    return {
        {"wall_s", wallS / static_cast<double>(rounds.size()), "s"},
        {"setup_s", preRoundS + first.ctorS, "s"},
        {"sim_minstr_per_s", ratio(instructions, simS) / 1e6, "Minstr/s"},
        {"sim_mcycles_per_s", ratio(cycles, simS) / 1e6, "Mcycles/s"},
        {"sim_cycles_per_op",
         ratio(static_cast<double>(first.doneCycles),
               static_cast<double>(first.doneOps)),
         "cycles/op"},
        // After the first round: later rounds repeat its inputs, and the
        // allocator's growth across rounds is not the workload's footprint.
        {"peak_rss_mib", first.peakRssMiB, "MiB"},
    };
}

/** The seven layers (src/ modules) plus the benchmark's own code. */
const char *const kLayers[] = {"workloads", "pmem",    "cpu",
                               "core",      "mem",     "sim",
                               "harness",   "bench",   "side"};

std::vector<Metric>
perLayer(const Ctx &c, double untracedWallS, const Round &traced)
{
    const Round &r = traced;
    const LayerExtras &x = c.extra;
    const Stats &s = r.sum;
    auto direct = [&](const char *name) {
        auto it = x.direct.find(name);
        return it == x.direct.end() ? 0.0 : it->second;
    };
    auto count = [](uint64_t v) { return static_cast<double>(v); };

    std::vector<Metric> m = {
        {"workloads.setup_s", x.setupS, "s"},
        {"workloads.emit_ns_per_instr",
         ratio(x.drainS * 1e9, count(x.drainInstructions)), "ns/instr"},
        {"workloads.replay_s", r.replayS, "s"},
        {"harness.build_s", x.buildS, "s"},
        {"harness.crash_run_s", r.crashRunS, "s"},
        {"harness.finish_s", r.finishS, "s"},
        {"harness.allocs_per_kcycle",
         ratio(count(r.steadyAllocs) * 1000.0, count(r.steadyCycles)),
         "allocs/kcycle"},
        {"cpu.ns_per_sim_cycle",
         x.direct.count("cpu.ns_per_sim_cycle")
             ? direct("cpu.ns_per_sim_cycle")
             : ratio((x.drainedRunS - x.drainS) * 1e9,
                     count(x.drainedCycles)),
         "ns/cycle"},
        {"cpu.fetch_stall_cycles", count(s.fetchQueueStallCycles), "cycles"},
        {"cpu.fence_stall_cycles", count(s.fenceStallCycles), "cycles"},
        {"cpu.store_buffer_stall_cycles", count(s.storeBufferStallCycles),
         "cycles"},
        {"core.sp_speedup", geomean(r.spRatios), "x"},
        {"core.epochs_committed", count(s.epochsCommitted), "count"},
        {"core.ssb_forwards", count(s.ssbForwards), "count"},
        {"core.bloom_fp_ratio",
         ratio(count(s.bloomFalsePositives), count(s.bloomLookups)),
         "ratio"},
        {"core.ssb_full_stall_cycles", count(s.ssbFullStallCycles),
         "cycles"},
        {"core.checkpoint_stall_cycles", count(s.checkpointStallCycles),
         "cycles"},
        {"core.aborts", count(s.aborts), "count"},
        {"core.watchdog_degradations", count(s.watchdogDegradations),
         "count"},
        {"core.bloom_probe_ns", direct("core.bloom_probe_ns"), "ns"},
        {"core.ssb_search_ns", direct("core.ssb_search_ns"), "ns"},
        {"core.blt_probe_ns", direct("core.blt_probe_ns"), "ns"},
        {"mem.l1d_misses", count(s.l1dMisses), "count"},
        {"mem.l2_misses", count(s.l2Misses), "count"},
        {"mem.l3_misses", count(s.l3Misses), "count"},
        {"mem.wpq_inserts", count(s.wpqInserts), "count"},
        {"mem.wpq_coalesced", count(s.wpqCoalesced), "count"},
        {"mem.nvmm_reads", count(s.nvmmReads), "count"},
        {"mem.nvmm_writes", count(s.nvmmWrites), "count"},
        {"mem.pcommits", count(s.pcommits), "count"},
        {"mem.trans_hit_ratio",
         ratio(count(r.transHits), count(r.transLookups)), "ratio"},
        {"mem.cache_access_ns", direct("mem.cache_access_ns"), "ns"},
        {"sim.unobserved_s", direct("sim.unobserved_s"), "s"},
        {"sim.trace_s", direct("sim.trace_s"), "s"},
        {"sim.audit_s", direct("sim.audit_s"), "s"},
        {"sim.account_s", direct("sim.account_s"), "s"},
        {"sim.observer_allocs_per_kcycle",
         direct("sim.observer_allocs_per_kcycle"), "allocs/kcycle"},
        {"sim.hidden_share", direct("sim.hidden_share"), "ratio"},
        {"sim.media_fault_s", r.mediaS, "s"},
        {"pmem.recover_s", r.recoverS, "s"},
        {"pmem.lines_repaired", count(r.linesRepaired), "count"},
        {"pmem.lines_degraded", count(r.linesDegraded), "count"},
        {"pmem.recovery_retries", count(r.recoveryRetries), "count"},
    };
    std::map<std::string, double> self = c.spans.selfSeconds();
    for (const char *layer : kLayers)
        m.push_back({std::string("self.") + layer + "_s", self[layer], "s"});
    m.push_back({"trace.untraced_wall_s", untracedWallS, "s"});
    m.push_back({"trace.traced_wall_s", traced.wallS(), "s"});
    m.push_back({"trace.overhead_s", traced.wallS() - untracedWallS, "s"});
    return m;
}

// --------------------------------------------------------------------------
// Main
// --------------------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string revision = "unknown";
    std::string spanDir = ".";
    /** Internal: run one observed_bt observer variant and print it. */
    std::string sideRun;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "spbench: %s\nusage: spbench --workload "
                 "{paper_grid|observed_bt|fault_campaign} --seed N "
                 "--seconds S --trace {0|1} [--revision R] "
                 "[--span-dir DIR]\n",
                 why);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end || v.empty() || v[0] == '-')
                usage("--seed takes a non-negative integer");
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (*end || !(o.seconds > 0))
                usage("--seconds takes a positive number");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--revision") {
            o.revision = v;
        } else if (a == "--span-dir") {
            o.spanDir = v;
        } else if (a == "--side-run") {
            if (v != "none" && v != "trace" && v != "audit" && v != "account")
                usage("--side-run takes none, trace, audit or account");
            o.sideRun = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (o.workload != "paper_grid" && o.workload != "observed_bt" &&
        o.workload != "fault_campaign")
        usage("unknown or missing --workload");
    return o;
}

void
printManifest(const Options &o, const std::vector<std::string> &configs)
{
    cpu_set_t set;
    int usable = sched_getaffinity(0, sizeof(set), &set) == 0
        ? CPU_COUNT(&set)
        : -1;
    std::printf("manifest: revision=%s build_type=%s cxx_flags=\"%s\" "
                "compiler=\"%s\" nproc_online=%ld nproc_usable=%d "
                "workload=%s seed=%llu seconds=%g trace=%d threads=1\n",
                o.revision.c_str(), SPBENCH_BUILD_TYPE, SPBENCH_CXX_FLAGS,
                SPBENCH_COMPILER, sysconf(_SC_NPROCESSORS_ONLN), usable,
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0);
    for (const std::string &cfg : configs)
        std::printf("manifest.run: %s\n", cfg.c_str());
}

/**
 * Untraced wall time of one round, measured in a fresh process so that it
 * starts from the same heap state as the traced round.
 */
double
untracedBaseline(const Options &o)
{
    Child ch =
        startSelf({"--workload", o.workload, "--seed", std::to_string(o.seed),
                   "--seconds", "0.001", "--trace", "0"});
    std::string out;
    if (!finishSelf(ch, &out))
        throw std::runtime_error("untraced baseline run failed");
    size_t at = out.rfind("\"wall_s\": {\"value\": ");
    if (at == std::string::npos)
        throw std::runtime_error("untraced baseline printed no wall_s");
    return std::strtod(out.c_str() + at + 20, nullptr);
}

int
runBenchmark(const Options &opt)
{
    if (!opt.sideRun.empty())
        return sideRunMain(opt.seed, opt.sideRun);
    void (*round)(Ctx &) = opt.workload == "paper_grid" ? paperGridRound
        : opt.workload == "observed_bt"                 ? observedRound
                                                        : faultCampaignRound;
    Ctx c(opt.seed);

    if (!opt.trace) {
        // Whole rounds until --seconds have passed.
        double preRoundS = secondsSince(g_processStart);
        auto t0 = Clock::now();
        std::vector<Round> rounds;
        do {
            c.round = Round();
            c.recordConfigs = rounds.empty();
            round(c);
            c.round.peakRssMiB = peakRssMiB();
            rounds.push_back(c.round);
        } while (secondsSince(t0) < opt.seconds);
        printManifest(opt, c.configs);
        double checkS = 0;
        std::printf("round wall_s:");
        for (const Round &r : rounds) {
            checkS += r.checkS;
            std::printf(" %.3f", r.wallS());
        }
        std::printf("\nround sim_mcycles_per_s:");
        for (const Round &r : rounds) {
            std::printf(" %.3f",
                        ratio(static_cast<double>(r.cycles), r.simS()) / 1e6);
        }
        std::printf("\ncorrectness checks: %.3f s (in no metric)\n", checkS);
        std::printf("cpu steering: %u probes, %u moves\n", g_steer.probes(),
                    g_steer.moves());
        printFigure8(rounds.front());
        printResult(c, endToEnd(rounds, preRoundS));
        return c.incorrect ? 1 : 0;
    }

    // One traced round: the process's first heavy work, like round one
    // of an untraced run.
    c.spans = SpanRecorder(true);
    c.traced = true;
    {
        Scope s(c.spans, "round", "bench");
        round(c);
    }
    if (opt.workload == "paper_grid")
        componentTimings(c);
    double untracedWallS = untracedBaseline(opt);
    printManifest(opt, c.configs);
    printFigure8(c.round);
    std::string spanPath = opt.spanDir + "/spans-" + opt.workload + "-seed" +
        std::to_string(opt.seed) + ".json";
    if (!c.spans.writeJson(spanPath))
        std::fprintf(stderr, "spbench: cannot write %s\n", spanPath.c_str());
    std::vector<Metric> metrics = perLayer(c, untracedWallS, c.round);
    for (const Metric &m : metrics)
        std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
    printResult(c, metrics);
    return c.incorrect ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    try {
        return runBenchmark(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "spbench: %s\n", e.what());
        return 1;
    }
}
