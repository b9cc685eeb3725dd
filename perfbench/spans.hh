/**
 * @file
 * Span recorder for the benchmark's traced run.
 *
 * A span is one call from the benchmark into a layer of the simulator:
 * name, layer, start, end and the span that was open when it began
 * (its parent). Spans are kept in memory and written out as JSON when the
 * benchmark ends. A layer's self time is the duration of its spans minus
 * the part their child spans cover.
 *
 * Some calls run several layers at once (the Machine constructor runs the
 * workload's functional fast-forward; Machine::runUntil pulls micro-ops
 * from the workload's emitter). For those the traced run times the inner
 * layer separately on a twin instance and records it as a *derived*
 * child span of that duration, so the parent's self time excludes it.
 * Derived spans are flagged in the JSON.
 */

#ifndef SPBENCH_SPANS_HH
#define SPBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace spbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `t0`. */
double secondsSince(Clock::time_point t0);

/** One recorded interval. */
struct Span
{
    std::string name;
    std::string layer;
    int64_t startNs = 0;
    int64_t endNs = 0;
    /** Index of the parent span, or -1 for a root. */
    int parent = -1;
    bool derived = false;
};

/**
 * Layer of side measurements (twin instances, observer-alone runs,
 * component timings): work the traced run adds beside the workload's
 * own calls. Every span under a side span counts as side time.
 */
inline const std::string kSideLayer = "side";

/** In-memory span store; does nothing when disabled (untraced runs). */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled);

    /** Open a span under the innermost open one; -1 when disabled. */
    int open(const std::string &name, const std::string &layer);

    /** Close span `id` (must be the innermost open span). */
    void close(int id);

    /**
     * Record a derived child of `parent` lasting `seconds`, clamped to
     * the parent's duration minus the children it already has.
     */
    void derived(int parent, const std::string &name,
                 const std::string &layer, double seconds);

    /** Self time per layer, in seconds; side subtrees count as
     *  kSideLayer whatever their own layer. */
    std::map<std::string, double> selfSeconds() const;

    /** Write every span as a JSON array; false on I/O failure. */
    bool writeJson(const std::string &path) const;

  private:
    int64_t nowNs() const;

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/**
 * Times one call. The elapsed seconds are always added to `*acc` (the
 * untraced run needs the durations too); a span is recorded only when
 * the recorder is enabled.
 */
class Scope
{
  public:
    Scope(SpanRecorder &rec, const std::string &name,
          const std::string &layer, double *acc = nullptr);
    ~Scope() { stop(); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** End the span now (the destructor does it otherwise). */
    void stop();

    /** Span index (for derived children), -1 when untraced. */
    int id() const { return id_; }

  private:
    SpanRecorder &rec_;
    double *acc_;
    int id_;
    Clock::time_point t0_;
    bool open_ = true;
};

} // namespace spbench

#endif // SPBENCH_SPANS_HH
