/**
 * @file
 * The benchmark's correctness checks, as pure functions of run outputs so
 * that selftest.cc can show each one failing on a corrupted input.
 *
 * Every check returns an empty string when the input passes and a
 * one-line diagnostic when it does not.
 */

#ifndef SPBENCH_CHECKS_HH
#define SPBENCH_CHECKS_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/runner.hh"
#include "pmem/recovery.hh"
#include "workloads/factory.hh"

namespace spbench
{

using Contents = std::vector<std::pair<uint64_t, uint64_t>>;

/** The five Figure 8 variants, in the order of the grid's columns. */
enum Variant : unsigned
{
    kVarNone,
    kVarLog,
    kVarLogP,
    kVarLogPSf,
    kVarSp256,
    kNumVariants
};

const char *variantName(unsigned v);

/** A memory reference of a drained op stream: 'L'oad, 'S'tore, 'F'ence. */
struct MemRef
{
    sp::Addr addr = 0;
    uint8_t size = 0;
    char kind = 'L';
};

/**
 * Drain `w`'s op stream through Program::next with no core attached --
 * after setup() this leaves `w` as the functional reference for the same
 * configuration. Appends up to `cap` memory references to `refs` when
 * given.
 *
 * @return Instructions drained, counted as the core counts retirement.
 */
uint64_t drainProgram(sp::Workload &w, std::vector<MemRef> *refs = nullptr,
                      size_t cap = 0);

/**
 * `img` is a valid image of `ref`'s structure (Workload::checkImage) and
 * its logical contents equal `expected`.
 */
std::string checkImageContents(const sp::Workload &ref,
                               const sp::MemImage &img,
                               const Contents &expected);

/**
 * Lines where the media-faulted recovery `faulted` differs from the
 * pristine recovery `clean` of the same crash image, are live data, and
 * were not reported by `report` (detectedLines covers degraded lines):
 * silent escapes. Dead bytes -- the CRC slot table, undo-log entries,
 * and lines whose CRC slot is invalid in the oracle -- are not live.
 */
uint64_t countSilentEscapes(const sp::MemImage &faulted,
                            const sp::MemImage &clean,
                            const sp::RecoveryReport &report);

/** One structure's row of the Figure 8 grid. */
struct GridRow
{
    sp::WorkloadKind kind = sp::WorkloadKind::kLinkedList;
    std::array<uint64_t, kNumVariants> cycles{};
    std::array<uint64_t, kNumVariants> instructions{};
    std::array<uint64_t, kNumVariants> durableHash{};
};

/**
 * Figure 8's shape on one structure: cycles rise None <= Log <= Log+P <=
 * Log+P+Sf, SP256 is strictly faster than Log+P+Sf, and SP256 retires
 * the same instructions and leaves the same durable image as Log+P+Sf.
 */
std::string checkGridRow(const GridRow &row);

} // namespace spbench

#endif // SPBENCH_CHECKS_HH
