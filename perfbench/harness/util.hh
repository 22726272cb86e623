/**
 * @file
 * Shared measurement helpers of the benchmark harness: clocks, order
 * statistics, the host-speed probe, peak-RSS readout and the host and
 * provenance record.
 */

#ifndef PERFBENCH_UTIL_HH
#define PERFBENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds since @p a. */
double msSince(Clock::time_point a);

/**
 * CPU time of this process (user + system, every thread) in ms. On a
 * virtual machine with steal-time accounting it leaves out the time
 * the hypervisor ran something else on this process's vCPU.
 */
double cpuMs();

/** A span's cost on both clocks. */
struct OpTime
{
    double wall_ms = 0.0; //!< host (steady-clock) time
    double cpu_ms = 0.0;  //!< this process's CPU time (cpuMs)
};

/** Times a span on both clocks from construction. */
class Stopwatch
{
  public:
    Stopwatch() : wall_(Clock::now()), cpu_(cpuMs()) {}
    OpTime elapsed() const { return {msSince(wall_), cpuMs() - cpu_}; }

  private:
    Clock::time_point wall_;
    double cpu_;
};

/** Median (mean of the two middle values for even sizes); 0 if empty. */
double median(std::vector<double> v);

/** Nearest-rank quantile, @p q in [0, 1]; 0 if empty. */
double quantile(std::vector<double> v, double q);

/**
 * The tail statistic: the sample at the highest percentile that still
 * has at least ten samples beyond it, i.e. the eleventh largest.
 */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0; //!< share of samples at or below, in %
};
Tail tailOf(std::vector<double> v);

/** Peak resident set (VmHWM) of @p pid, 0 meaning this process, MiB. */
double peakRssMb(pid_t pid = 0);

/**
 * Host-speed probe, independent of the program under test: the median
 * time of a fixed integer loop, and the median latency of fsync on a
 * cache-entry-sized file written into @p dir.
 */
struct HostProbe
{
    double cpu_probe_ms = 0.0;
    double fsync_us = 0.0;
};
HostProbe probeHost(const std::string &dir);

/**
 * Moves threads round-robin over every CPU this process may run on, one
 * step per @p period_ms, until destroyed. On a shared host each vCPU's
 * speed swings independently with its neighbours' load (measured: up
 * to 2x on throughput-bound code, uncorrelated between vCPUs); a timed
 * thread that visits every vCPU averages that out within each op
 * instead of inheriting one vCPU's regime for seconds at a time.
 */
class CpuRotation
{
  public:
    /** Pin the constructing thread to each CPU in turn. */
    explicit CpuRotation(double period_ms);
    /**
     * Keep every thread of process @p pid off one CPU at a time, the
     * excluded CPU moving round-robin each step: a thread must change
     * CPU every few steps, yet a wake-up can still pick any of the rest.
     * For a service whose requests are mostly wake-ups, where pinning
     * each thread to one CPU made every wake-up wait for that CPU.
     */
    CpuRotation(double period_ms, pid_t pid);
    ~CpuRotation();
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

  private:
    struct State;
    std::unique_ptr<State> state_;
};

/** A named value with its unit, as printed in the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * The host and provenance record: CPU model, nproc, ISA flags,
 * compiler, build type, git describe, seed, thread counts and
 * hardware-counter availability, as one JSON object.
 */
std::string provenanceJson(std::uint64_t seed, unsigned engine_threads,
                           unsigned daemon_threads);

/** Render metrics as a JSON object {"name": {"value":..,"unit":..}}. */
std::string metricsJson(const std::vector<Metric> &metrics);

/** Full-precision JSON rendering of a double. */
std::string num(double v);

} // namespace perfbench

#endif // PERFBENCH_UTIL_HH
