#include "util.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <condition_variable>
#include <mutex>
#include <thread>

#include <fcntl.h>
#include <linux/perf_event.h>
#include <sched.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include "common/json.hh"
#include "telemetry/build_info.hh"

namespace perfbench
{

double
msSince(Clock::time_point a)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - a).count();
}

double
cpuMs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    // Fewer than eleven samples cannot leave ten beyond any of them;
    // fall back to the maximum (reported as the 100th percentile).
    const std::size_t i = v.size() > 10 ? v.size() - 11 : v.size() - 1;
    t.value = v[i];
    t.percentile =
        100.0 * static_cast<double>(i + 1) / static_cast<double>(v.size());
    return t;
}

double
peakRssMb(pid_t pid)
{
    const std::string path =
        pid == 0 ? "/proc/self/status"
                 : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

namespace
{

/** Keeps the probe loop's result alive so it is not folded away. */
volatile std::uint64_t probe_sink = 0;

/** Fixed xorshift loop, independent of the program under test. */
double
cpuLoopMs()
{
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 4000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    probe_sink = x;
    return msSince(t0);
}

double
fsyncUs(const std::string &dir)
{
    const std::string path = dir + "/host-probe.fsync";
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return 0.0;
    // A cache entry is a few hundred bytes (sweep/result_cache.hh).
    char buf[512];
    std::memset(buf, 'x', sizeof(buf));
    std::vector<double> us;
    for (int i = 0; i < 9; ++i) {
        if (::pwrite(fd, buf, sizeof(buf), 0) !=
            static_cast<ssize_t>(sizeof(buf)))
            break;
        const auto t0 = Clock::now();
        if (::fsync(fd) != 0)
            break;
        us.push_back(1e3 * msSince(t0));
    }
    ::close(fd);
    ::unlink(path.c_str());
    return median(us);
}

std::string
cpuinfoField(const std::string &key)
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) != 0)
            continue;
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
    }
    return "unknown";
}

/** The ISA extensions that decide which kernels a compiler may use. */
std::string
isaFlags()
{
    static const char *const kInteresting[] = {
        "sse4_2", "avx", "avx2", "fma", "bmi2", "avx512f", "avx512bw",
        "avx512vl", "avx512dq"};
    std::istringstream flags(" " + cpuinfoField("flags") + " ");
    std::vector<std::string> have;
    std::string f;
    while (flags >> f) {
        for (const char *want : kInteresting)
            if (f == want)
                have.push_back(f);
    }
    std::string out;
    for (const auto &h : have)
        out += (out.empty() ? "" : " ") + h;
    return out;
}

#ifdef __clang__
constexpr const char *kCompiler = "clang " __clang_version__;
#else
constexpr const char *kCompiler = "gcc " __VERSION__;
#endif

/** Whether perf_event_open grants a hardware cycle counter. */
std::string
hardwareCounters()
{
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = PERF_TYPE_HARDWARE;
    attr.config = PERF_COUNT_HW_CPU_CYCLES;
    attr.disabled = 1;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    const long fd = ::syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
    if (fd < 0)
        return "unavailable";
    ::close(static_cast<int>(fd));
    return "available";
}

unsigned
onlineCpus()
{
    cpu_set_t set;
    if (::sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<unsigned>(n) : 1;
}

} // namespace

namespace
{

/** The CPUs this process may run on, also as the mask @p allowed. */
std::vector<int>
allowedCpus(cpu_set_t *allowed)
{
    CPU_ZERO(allowed);
    std::vector<int> cpus;
    if (::sched_getaffinity(0, sizeof(*allowed), allowed) != 0)
        return cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, allowed))
            cpus.push_back(c);
    return cpus;
}

} // namespace

struct CpuRotation::State
{
    std::mutex mutex;
    std::condition_variable wake;
    bool stop = false;
    std::thread thread;

    /**
     * Every @p period_ms, hand @p apply the mask @p mask_at(step) until
     * stopped; then hand it @p allowed.
     */
    template <typename MaskAt, typename Apply>
    void
    start(double period_ms, const cpu_set_t &allowed, MaskAt mask_at,
          Apply apply)
    {
        thread = std::thread([this, period_ms, allowed, mask_at, apply] {
            std::unique_lock<std::mutex> lock(mutex);
            for (std::size_t step = 0; !stop; ++step) {
                apply(mask_at(step));
                wake.wait_for(lock,
                              std::chrono::duration<double, std::milli>(period_ms),
                              [this] { return stop; });
            }
            apply(allowed);
        });
    }
};

CpuRotation::CpuRotation(double period_ms) : state_(std::make_unique<State>())
{
    const pid_t tid = static_cast<pid_t>(::syscall(SYS_gettid));
    cpu_set_t allowed;
    const std::vector<int> cpus = allowedCpus(&allowed);
    if (cpus.size() < 2)
        return;
    state_->start(
        period_ms, allowed,
        [cpus](std::size_t step) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus[step % cpus.size()], &one);
            return one;
        },
        [tid](const cpu_set_t &mask) {
            ::sched_setaffinity(tid, sizeof(mask), &mask);
        });
}

CpuRotation::CpuRotation(double period_ms, pid_t pid)
    : state_(std::make_unique<State>())
{
    cpu_set_t allowed;
    const std::vector<int> cpus = allowedCpus(&allowed);
    if (cpus.size() < 3)
        return;
    const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
    state_->start(
        period_ms, allowed,
        [cpus, allowed](std::size_t step) {
            cpu_set_t mask = allowed;
            CPU_CLR(cpus[step % cpus.size()], &mask);
            return mask;
        },
        [task_dir](const cpu_set_t &mask) {
            std::error_code ec;
            for (const auto &e : std::filesystem::directory_iterator(task_dir, ec))
                ::sched_setaffinity(
                    static_cast<pid_t>(std::stol(e.path().filename())),
                    sizeof(mask), &mask);
        });
}

CpuRotation::~CpuRotation()
{
    {
        const std::lock_guard<std::mutex> lock(state_->mutex);
        state_->stop = true;
    }
    state_->wake.notify_all();
    if (state_->thread.joinable())
        state_->thread.join();
}

HostProbe
probeHost(const std::string &dir)
{
    HostProbe p;
    std::vector<double> cpu;
    for (int i = 0; i < 5; ++i)
        cpu.push_back(cpuLoopMs());
    p.cpu_probe_ms = median(cpu);
    p.fsync_us = fsyncUs(dir);
    return p;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
provenanceJson(std::uint64_t seed, unsigned engine_threads,
               unsigned daemon_threads)
{
    using pipedepth::jsonQuote;
    std::ostringstream os;
    os << "{\"cpu_model\": " << jsonQuote(cpuinfoField("model name"))
       << ", \"nproc\": " << onlineCpus()
       << ", \"isa_flags\": " << jsonQuote(isaFlags())
       << ", \"compiler\": " << jsonQuote(kCompiler)
       << ", \"build_type\": " << jsonQuote(PERFBENCH_BUILD_TYPE)
       << ", \"git_describe\": " << jsonQuote(pipedepth::gitDescribe())
       << ", \"seed\": " << seed
       << ", \"engine_threads\": " << engine_threads
       << ", \"daemon_threads\": " << daemon_threads
       << ", \"hardware_counters\": " << jsonQuote(hardwareCounters())
       << "}";
    return os.str();
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << pipedepth::jsonQuote(metrics[i].name)
           << ": {\"value\": " << num(metrics[i].value)
           << ", \"unit\": " << pipedepth::jsonQuote(metrics[i].unit) << "}";
    }
    os << "}";
    return os.str();
}

} // namespace perfbench
