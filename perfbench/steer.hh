/**
 * @file
 * Keeps the benchmark's one simulation thread on the quietest CPU it may
 * use.
 *
 * On a shared host each vCPU slows down on its own, for seconds at a
 * time, whenever whatever shares its physical core gets busy: the
 * simulator then runs up to 1.8x slower on that vCPU while another runs
 * at full speed. A short throughput-bound integer kernel (eight
 * independent xorshift chains) slows down in step with the simulator, so
 * timing it on each allowed CPU in turn finds the quietest one, and the
 * thread is pinned there. (Adding a pointer chase over an L2-sized
 * buffer to the probe made the simulator slower: it evicts the
 * simulator's own data.) Probing is rate-limited and happens only
 * between the benchmark's timed calls (or between chunks of a long
 * Machine::runUntil), never inside one.
 */

#ifndef SPBENCH_STEER_HH
#define SPBENCH_STEER_HH

#include <vector>

#include "spans.hh"

namespace spbench
{

class CoreSteering
{
  public:
    /** Steering over the CPUs of the process's affinity mask. */
    CoreSteering();

    /**
     * Unpin: back to the whole affinity mask, so that processes started
     * next inherit all of it. The next maybeSteer() probes again.
     */
    void release();

    /** True when maybeSteer() would probe now. */
    bool
    due() const
    {
        return enabled_ && (!probed_ || secondsSince(last_) >= kInterval);
    }

    /**
     * Probe and re-pin when at least `kInterval` seconds have passed since
     * the last probe.
     *
     * @return seconds spent probing (0 when nothing was done).
     */
    double maybeSteer();

    /** Probes made and CPU changes so far. */
    unsigned probes() const { return probes_; }
    unsigned moves() const { return moves_; }

    /** Seconds between probes. */
    static constexpr double kInterval = 0.25;

  private:
    bool enabled_ = true;
    std::vector<int> cpus_;
    int current_ = -1;
    Clock::time_point last_{};
    bool probed_ = false;
    unsigned probes_ = 0;
    unsigned moves_ = 0;
};

} // namespace spbench

#endif // SPBENCH_STEER_HH
