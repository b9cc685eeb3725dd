#include "steer.hh"

#include <sched.h>

#include <cstdint>

namespace spbench
{

namespace
{

/** Eight independent xorshift chains: bound by integer issue width, so
 *  it slows down when the physical core is shared. */
uint64_t
kernel(unsigned n)
{
    uint64_t s[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    for (unsigned i = 0; i < n; ++i) {
        for (uint64_t &x : s) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
    }
    uint64_t sum = 0;
    for (uint64_t x : s)
        sum += x;
    return sum;
}

volatile uint64_t g_kernelSink = 0;

bool
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0;
}

/** Best of two kernel bursts on `cpu` (about 0.25 ms each at full
 *  speed), in seconds. */
double
probe(int cpu)
{
    pinTo(cpu);
    double best = 1e9;
    for (int rep = 0; rep < 2; ++rep) {
        auto t0 = Clock::now();
        g_kernelSink = g_kernelSink + kernel(50000);
        double s = secondsSince(t0);
        best = s < best ? s : best;
    }
    return best;
}

} // namespace

CoreSteering::CoreSteering()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &set))
                cpus_.push_back(cpu);
        }
    }
    if (cpus_.size() < 2)
        enabled_ = false;
}

void
CoreSteering::release()
{
    if (!enabled_)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : cpus_)
        CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
    current_ = -1;
    probed_ = false;
}

double
CoreSteering::maybeSteer()
{
    if (!due())
        return 0;
    auto t0 = Clock::now();
    int best = -1;
    double bestS = 0, currentS = 0;
    for (int cpu : cpus_) {
        double s = probe(cpu);
        if (best < 0 || s < bestS) {
            best = cpu;
            bestS = s;
        }
        if (cpu == current_)
            currentS = s;
    }
    // Stay put unless another CPU is clearly quieter: a move costs the
    // thread its private caches.
    if (current_ < 0 || bestS < 0.95 * currentS) {
        if (current_ >= 0 && best != current_)
            ++moves_;
        current_ = best;
    }
    pinTo(current_);
    ++probes_;
    probed_ = true;
    last_ = Clock::now();
    return secondsSince(t0);
}

} // namespace spbench
