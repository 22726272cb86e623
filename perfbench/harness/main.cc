/**
 * @file
 * pdbench — the pipedepth benchmark harness.
 *
 *   pdbench --workload grid-cold|tape-resweep|daemon-mixed --seed N
 *           --seconds S --trace 0|1 [--golden FILE] [--work-dir DIR]
 *
 * Every workload drives the system through its public API from this
 * one process: SweepEngine::runGrid / runConfigs, readTrace, and the
 * pipesimd socket. The seed generates the inputs; the program only
 * ever sees the generated inputs.
 *
 * Untraced runs (--trace 0) report the end-to-end metrics; the traced
 * run (--trace 1) reports per-layer metrics, timed around the calls
 * into each module from the harness's own files. Output: a `report`
 * JSON line (provenance, host probes, diagnostics), then the result
 * line {"correct", "attempted", "failed", "metrics"} last.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "calib/extract.hh"
#include "checker.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "core/optimum_solver.hh"
#include "daemon.hh"
#include "layers.hh"
#include "sweep/sweep_engine.hh"
#include "telemetry/telemetry.hh"
#include "trace/trace_io.hh"
#include "util.hh"
#include "workloads/catalog.hh"

namespace fs = std::filesystem;
using namespace pipedepth;
using namespace perfbench;

namespace
{

/** Engine and daemon worker threads: fixed, never hardware concurrency. */
constexpr unsigned kEngineThreads = 1;
constexpr unsigned kDaemonThreads = 1;
/** Step of the CPU rotation of the timed threads (util.hh). */
constexpr double kRotationMs = 10.0;
/** Set-up phases per run; setup_s is their median. */
constexpr int kSetupReps = 3;
/** Traced ops whose engine counters are summed (exact counts). */
constexpr std::size_t kCountedOps = 8;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string golden = "tests/sweep/golden_sim_hashes.inc";
    std::string work_dir = ".bench_out";
};

bool
parseArgs(int argc, char **argv, Args *a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        if (k == "--workload")
            a->workload = v;
        else if (k == "--seed")
            a->seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a->seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a->trace = v == "1";
        else if (k == "--golden")
            a->golden = v;
        else if (k == "--work-dir")
            a->work_dir = v;
        else
            return false;
    }
    return !a->workload.empty() && a->seconds > 0.0;
}

/** Everything one run accumulates. */
struct Run
{
    Args args;
    Clock::time_point process_start;
    std::string dir; //!< this run's scratch directory
    ResultChecker checker;

    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failure_examples;

    std::vector<double> setup_s;
    /**
     * Timed ops: CPU time in-process (cpu_timed), latency from the
     * scheduled send time on daemon-mixed.
     */
    std::vector<double> latencies_ms;
    std::size_t good = 0; //!< timed ops that count as goodput
    double timed_s = 0.0; //!< CPU seconds in-process, host seconds otherwise
    bool cpu_timed = false;
    std::vector<double> wall_ms; //!< in-process ops' host time (diagnostic)
    double timed_wall_s = 0.0;

    LayerSamples layers;
    std::map<std::string, double> counts;
    double peak_rss_mb = 0.0; //!< of the process doing the work
    std::vector<double> untraced_ms, traced_ms; //!< traced run's op pairs

    /** Record one checked op; @return whether it passed. */
    bool
    op(const std::vector<std::string> &failures)
    {
        ++attempted;
        if (failures.empty())
            return true;
        ++failed;
        if (failure_examples.size() < 8)
            failure_examples.push_back(failures.front());
        return false;
    }
};

// ---------------------------------------------------------------------
// Catalog sampling
// ---------------------------------------------------------------------

/** The paper's four families; SPECint95 and SPECint2000 are one. */
std::vector<std::vector<WorkloadSpec>>
families()
{
    std::vector<std::vector<WorkloadSpec>> f(4);
    for (const WorkloadSpec &w : workloadCatalog()) {
        switch (w.cls) {
          case WorkloadClass::Legacy: f[0].push_back(w); break;
          case WorkloadClass::Modern: f[1].push_back(w); break;
          case WorkloadClass::SpecInt95:
          case WorkloadClass::SpecInt2000: f[2].push_back(w); break;
          case WorkloadClass::SpecFp: f[3].push_back(w); break;
        }
    }
    return f;
}

/** @p n distinct workloads, drawn round-robin over the families. */
std::vector<WorkloadSpec>
sampleAcrossFamilies(Rng &rng, std::size_t n)
{
    auto fam = families();
    std::vector<WorkloadSpec> out;
    for (std::size_t i = 0; out.size() < n; ++i) {
        auto &f = fam[i % fam.size()];
        if (f.empty())
            continue;
        const std::size_t j = rng.below(f.size());
        out.push_back(f[j]);
        f.erase(f.begin() + static_cast<std::ptrdiff_t>(j));
    }
    return out;
}

SweepEngineOptions
engineOptions(const std::string &cache_dir, unsigned threads)
{
    SweepEngineOptions o;
    o.threads = threads;
    // Empty means no cache at all, never the $HOME fallback.
    o.use_cache = !cache_dir.empty();
    o.cache_dir = cache_dir;
    return o;
}

void
addCounts(Run &run, const SweepCounters &c)
{
    run.counts["sweep.cells_computed"] += static_cast<double>(c.cells_computed);
    run.counts["sweep.cache_hits"] += static_cast<double>(c.cache_hits);
    run.counts["sweep.traces_generated"] +=
        static_cast<double>(c.traces_generated);
    run.counts["sweep.instructions_simulated"] +=
        static_cast<double>(c.instructions_simulated);
}

// ---------------------------------------------------------------------
// grid-cold: runGrid over a seeded catalog sample, nothing cached
// ---------------------------------------------------------------------

/**
 * The cache is off for this workload: every cold cache store is an
 * fsync of a new file, and on a shared virtual disk that latency moved
 * seven-fold within a minute (28 to 193 ms per 96 stores), which would
 * swamp the compute this workload exists to measure. The store layer
 * is still timed in the traced run (`sweep.cache_store_ms`), and cold
 * daemon requests still store through the engine.
 */
class GridCold
{
  public:
    explicit GridCold(std::uint64_t seed) : rng_(seed ^ 0x67726964ull) {}

    void setUp(Run &run, const std::string &dir)
    {
        dir_ = dir;
        fs::create_directories(dir_);
        std::string error;
        if (!run.checker.loadGolden(run.args.golden, &error))
            throw std::runtime_error(error);
        for (const WorkloadSpec &w : workloadCatalog()) {
            for (int d : {2, 7, 14, 25}) {
                if (!run.checker.hasGolden(w.name, d))
                    throw std::runtime_error("golden table lacks " + w.name);
            }
        }
        op(run, draw(), nullptr); // warm-up, untimed
    }

    /** One op's inputs: a workload from each family. */
    std::vector<WorkloadSpec> draw() { return sampleAcrossFamilies(rng_, 4); }

    /** The timed op: engine, grid, analysis. */
    OpTime op(Run &run, const std::vector<WorkloadSpec> &specs,
              SweepCounters *counters, bool *ok = nullptr)
    {
        const Stopwatch watch;
        std::vector<SweepResult> results;
        std::vector<OptimumResult> optima;
        SweepCounters c;
        {
            SweepEngine engine(engineOptions("", kEngineThreads));
            results = engine.runGrid(specs, shape_.options());
            for (const SweepResult &r : results) {
                const SimResult &ref = r.runs[static_cast<std::size_t>(
                    shape_.reference_depth - shape_.min_depth)];
                optima.push_back(
                    OptimumSolver(extractMachineParams(ref), PowerParams{})
                        .solveExact(3.0));
            }
            c = engine.counters();
        }
        const OpTime t = watch.elapsed();
        if (counters)
            *counters = c;

        std::vector<std::string> failures;
        if (results.size() != specs.size())
            failures.push_back("runGrid returned the wrong number of sweeps");
        for (std::size_t s = 0; s < results.size(); ++s) {
            const SweepResult &r = results[s];
            if (!r.complete() || r.runs.size() != 24)
                failures.push_back("incomplete grid for " + r.spec.name);
            for (const SimResult &cell : r.runs) {
                const std::string why = run.checker.checkCell(
                    cellKey(r.spec.name, shape_, cell.depth), cell, true);
                if (!why.empty())
                    failures.push_back(why);
            }
            const std::string why = run.checker.checkFirstSeen(
                "optimum:" + r.spec.name,
                num(optima[s].p_opt) + "/" + num(optima[s].metric));
            if (!why.empty())
                failures.push_back(why);
        }
        const bool passed = run.op(failures);
        if (ok)
            *ok = passed;
        return t;
    }

    /**
     * The traced op's attribution pass: the same grid through a
     * one-thread engine (so its wall time adds up serially), then as
     * decomposed layer calls.
     */
    void attribute(Run &run, const std::vector<WorkloadSpec> &specs)
    {
        const auto t0 = Clock::now();
        {
            SweepEngine engine(engineOptions("", 1));
            engine.runGrid(specs, shape_.options());
        }
        const double engine_ms = msSince(t0);

        // The decomposition also times the cache layers, into a
        // scratch cache; they are not part of this engine call.
        const std::string cache_dir = dir_ + "/layer-cache";
        double layers_ms = 0.0;
        std::vector<std::string> failures;
        {
            const ResultCache cache(cache_dir);
            for (std::size_t s = 0; s < specs.size(); ++s) {
                Decomposed d = decomposeSpecSweep(specs[s], shape_, cache, dir_,
                                                  s == 0, run.checker,
                                                  run.layers);
                layers_ms += d.compute_ms;
                failures.insert(failures.end(), d.failures.begin(),
                                d.failures.end());
            }
        }
        fs::remove_all(cache_dir);
        run.op(failures);
        run.layers.add("sweep.engine_unattributed_ms", engine_ms - layers_ms);
    }

    /** Service-leg requests: this workload's grids over the protocol. */
    std::vector<std::pair<std::string, SweepShape>>
    serviceRequests(const std::vector<WorkloadSpec> &specs) const
    {
        std::vector<std::pair<std::string, SweepShape>> out;
        for (const auto &s : specs)
            out.emplace_back(s.name, shape_);
        return out;
    }

  private:
    Rng rng_;
    SweepShape shape_; // golden shape, depths 2..25
    std::string dir_;
};

// ---------------------------------------------------------------------
// tape-resweep: readTrace + runConfigs over a filled cache
// ---------------------------------------------------------------------

class TapeResweep
{
  public:
    /** Tape length: long enough that trace keys and loads dominate. */
    static constexpr std::size_t kTapeLength = 150000;
    static constexpr std::size_t kTapeWarmup = 20000;
    static constexpr std::size_t kTapes = 3;

    explicit TapeResweep(std::uint64_t seed) : rng_(seed ^ 0x74617065ull)
    {
        shape_.length = kTapeLength;
        shape_.warmup = kTapeWarmup;
        configs_ = shape_.configs();
        Rng pick = rng_.fork();
        sources_ = sampleAcrossFamilies(pick, kTapes);
    }

    /**
     * Write the tapes and fill the cache. The cache directory belongs to
     * the run: the first set-up fills it, later ones find it filled, as
     * a restarted tool would, so cache-store fsyncs stay out of the
     * median set-up time.
     */
    void setUp(Run &run, const std::string &dir)
    {
        dir_ = dir;
        cache_dir_ = run.dir + "/tape-cache";
        fs::create_directories(dir_);
        engine_ = std::make_unique<SweepEngine>(
            engineOptions(cache_dir_, kEngineThreads));
        tapes_.clear();
        for (std::size_t i = 0; i < sources_.size(); ++i) {
            const std::string path = dir_ + "/tape" + std::to_string(i) + ".pptr";
            const Trace trace = sources_[i].makeTrace(kTapeLength);
            writeTrace(trace, path);
            tapes_.push_back(path);
            // Fill the cache; these are the first resolutions.
            check(run, i, engine_->runConfigs(trace, configs_), nullptr);
        }
        for (std::size_t i = 0; i < tapes_.size(); ++i)
            op(run, i, *engine_, nullptr); // warm-up, untimed
    }

    std::size_t draw() { return rng_.below(tapes_.size()); }

    OpTime op(Run &run, std::size_t tape, SweepEngine &engine,
              SweepCounters *counters, bool *ok = nullptr)
    {
        engine.resetCounters();
        const Stopwatch watch;
        const Trace trace = readTrace(tapes_[tape]);
        const std::vector<SimResult> results = engine.runConfigs(trace, configs_);
        const OpTime t = watch.elapsed();
        const SweepCounters c = engine.counters();
        if (counters)
            *counters = c;
        const bool passed = check(run, tape, results, &c);
        if (ok)
            *ok = passed;
        return t;
    }

    SweepEngine &engine() { return *engine_; }

    void attribute(Run &run, std::size_t tape)
    {
        SweepEngine serial(engineOptions(cache_dir_, 1));
        const Trace trace = readTrace(tapes_[tape]);
        const auto t0 = Clock::now();
        serial.runConfigs(trace, configs_);
        const double engine_ms = msSince(t0);
        const ResultCache cache(cache_dir_);
        Decomposed d = decomposeTapeSweep(tapes_[tape], tapeKey(tape), configs_,
                                          cache, run.checker, run.layers);
        run.op(d.failures);
        run.layers.add("sweep.engine_unattributed_ms",
                       engine_ms - d.compute_ms - d.cache_ms);
    }

    /** The layers a warm tape op skips, timed on the tapes' sources. */
    void probeOtherLayers(Run &run)
    {
        const std::string cache_dir = dir_ + "/probe-cache";
        const ResultCache cache(cache_dir);
        for (std::size_t i = 0; i < sources_.size(); ++i) {
            Decomposed d = decomposeSpecSweep(sources_[i], shape_, cache, dir_,
                                              i == 0, run.checker, run.layers);
            run.op(d.failures);
        }
        fs::remove_all(cache_dir);
    }

    std::vector<std::pair<std::string, SweepShape>> serviceRequests() const
    {
        std::vector<std::pair<std::string, SweepShape>> out;
        for (const auto &s : sources_)
            out.emplace_back(s.name, shape_);
        return out;
    }

  private:
    std::string tapeKey(std::size_t tape) const
    {
        return "tape" + std::to_string(tape) + ":" + sources_[tape].name;
    }

    bool check(Run &run, std::size_t tape, const std::vector<SimResult> &results,
               const SweepCounters *c)
    {
        std::vector<std::string> failures;
        if (results.size() != configs_.size())
            failures.push_back("runConfigs returned the wrong number of cells");
        if (c && (c->cache_hits != configs_.size() || c->cells_computed != 0))
            failures.push_back("a warm tape re-sweep missed the cache");
        for (const SimResult &r : results) {
            const std::string why = run.checker.checkCell(
                tapeKey(tape) + ":" + std::to_string(r.depth), r, false);
            if (!why.empty())
                failures.push_back(why);
        }
        return run.op(failures);
    }

    Rng rng_;
    SweepShape shape_;
    std::vector<PipelineConfig> configs_;
    std::vector<WorkloadSpec> sources_;
    std::vector<std::string> tapes_;
    std::string dir_;
    std::string cache_dir_;
    std::unique_ptr<SweepEngine> engine_;
};

// ---------------------------------------------------------------------
// daemon-mixed: an open-loop request mix against pipesimd. Runnable,
// but not a gated workload: its tail did not hold steady on a shared
// host (see "Why daemon-mixed is not gated" in perfbench/README.md).
// ---------------------------------------------------------------------

/** What a scheduled request must get back. */
struct Expect
{
    enum class Kind
    {
        Sweep,
        Optimum,
        Stats,
        Health,
        Error,
    };

    Expect() = default;
    Expect(Kind k, std::string l, std::string w = "", SweepShape s = {},
           int m = 3)
        : kind(k), label(std::move(l)), workload(std::move(w)), shape(s),
          exponent(m)
    {}

    Kind kind = Kind::Sweep;
    std::string label; //!< warm, cold, narrow, probe, malformed
    std::string workload;
    SweepShape shape;
    int exponent = 3;
    std::string code; //!< expected error code
};

std::string
daemonBinary()
{
    std::error_code ec;
    const fs::path self = fs::read_symlink("/proc/self/exe", ec);
    return (self.parent_path() / "pipesimd").string();
}

/**
 * Check one reply against what it must contain. Cell lines and
 * optimum values are checked against the first time the same key was
 * resolved in the run.
 */
std::vector<std::string>
checkReply(Run &run, const Expect &e, const Response &r)
{
    std::vector<std::string> f;
    if (!r.answered || r.lines.empty())
        return {"no reply to a " + e.label + " request"};
    const JsonValue &last = r.lines.back();
    const JsonValue *type = last.find("type");
    const std::string t = type && type->isString() ? type->string : "";
    auto field = [](const JsonValue &v, const char *k) {
        const JsonValue *x = v.find(k);
        return x && x->isNumber() ? x->number : -1.0;
    };
    switch (e.kind) {
      case Expect::Kind::Error: {
        const JsonValue *code = last.find("code");
        if (t != "error" || !code || code->string != e.code)
            f.push_back("malformed line did not get error code " + e.code);
        return f;
      }
      case Expect::Kind::Stats:
      case Expect::Kind::Health: {
        const JsonValue *status = last.find("status");
        const char *want = e.kind == Expect::Kind::Stats ? "stats" : "health";
        if (t != want || !status || status->string != "serving")
            f.push_back(std::string("bad ") + want + " reply");
        return f;
      }
      case Expect::Kind::Sweep:
      case Expect::Kind::Optimum:
        break;
    }
    const std::size_t cells =
        static_cast<std::size_t>(e.shape.max_depth - e.shape.min_depth + 1);
    if (t != "done")
        return {e.label + " request failed: " + last.dump()};
    if (field(last, "holes") != 0.0 ||
        field(last, "cells") != static_cast<double>(cells))
        f.push_back(e.label + " request has holes or missing cells");
    const std::string base = e.workload + ":" + std::to_string(e.shape.length) +
                             ":" + std::to_string(e.shape.warmup);
    const std::string m = ":m" + std::to_string(e.exponent);
    if (e.kind == Expect::Kind::Sweep) {
        if (r.lines.size() != cells + 1)
            f.push_back(e.label + " sweep returned the wrong number of cells");
        for (std::size_t i = 0; i + 1 < r.lines.size(); ++i) {
            const JsonValue &c = r.lines[i];
            if (field(c, "cycles") <= 0.0)
                f.push_back("hole in a cell line");
            // The simulated fields belong to the cell; the metric also
            // depends on the request's exponent and on the reference
            // depth its power model is calibrated at.
            std::string d;
            for (const char *k : {"cycles", "instructions", "cpi", "bips", "fo4"})
                d += num(field(c, k)) + "/";
            const std::string cell = "cell:" + base + ":" + num(field(c, "depth"));
            for (const std::string &why :
                 {run.checker.checkFirstSeen(cell, d),
                  run.checker.checkFirstSeen(
                      cell + ":ref" + std::to_string(e.shape.reference_depth) + m,
                      num(field(c, "metric")))}) {
                if (!why.empty())
                    f.push_back(why);
            }
        }
    }
    if (cells >= 4) {
        const std::string why = run.checker.checkFirstSeen(
            "opt:" + base + ":" + std::to_string(e.shape.min_depth) + "-" +
                std::to_string(e.shape.max_depth) + m,
            num(field(last, "optimum")));
        if (!why.empty())
            f.push_back(why);
    }
    return f;
}

class DaemonMixed
{
  public:
    /**
     * Requests per second. At this rate the daemon's threads rarely sit
     * idle long enough for their vCPUs to halt, so a warm request's
     * latency measures the daemon rather than the host's wake-up path
     * (at 40/s the warm median was lower by a fifth and spread twice as
     * wide run to run).
     */
    static constexpr double kRatePerS = 200.0;
    /** A request later than this is not goodput. */
    static constexpr double kLatencyLimitMs = 500.0;
    /**
     * Requests per second that compute: every third a cold eight-depth
     * sweep or optimum, the rest narrow steps. Few enough cold sweeps
     * (one every 1.5 s) that the eleventh-largest latency, the tail,
     * falls in the bulk of cold-sweep latencies rather than at their
     * worst.
     */
    static constexpr double kColdPerS = 2.0;
    static constexpr std::size_t kHotSet = 10;

    DaemonMixed(std::uint64_t seed, double seconds, unsigned connections)
        : connections_(connections)
    {
        Rng rng(seed ^ 0x6461656dull);
        hot_shape_.length = 20000;
        hot_shape_.warmup = 5000;
        hot_ = sampleAcrossFamilies(rng, kHotSet);
        buildSchedule(rng, seconds);
    }

    ~DaemonMixed() { closeConnections(); }

    /**
     * Start a daemon on @p cache_dir and warm the hot set. Set-up
     * repetitions share one cache directory: the first fills it, later
     * ones restart the daemon on it, so cache-store fsyncs (whose
     * latency on a shared disk swings several-fold) stay out of the
     * median set-up time. The timed phase's cold cells are never in it.
     */
    void setUp(Run &run, const std::string &dir, const std::string &cache_dir,
               bool access_log)
    {
        closeConnections();
        daemon_.reset();
        fs::create_directories(dir);
        daemon_ = std::make_unique<DaemonProcess>(
            daemonBinary(), dir, cache_dir, kDaemonThreads, access_log);
        if (!daemon_->ready())
            throw std::runtime_error("pipesimd did not start (see " + dir +
                                     "/pipesimd.log)");
        for (unsigned c = 0; c < connections_; ++c) {
            const int fd = connectUnix(daemon_->socketPath());
            if (fd < 0)
                throw std::runtime_error("cannot connect to pipesimd");
            fds_.push_back(fd);
        }
        // Pre-fill the hot set, then a warm repeat and the probe verbs
        // on every connection (untimed).
        std::vector<Scheduled> prefill;
        std::vector<Expect> expects;
        for (std::size_t i = 0; i < hot_.size(); ++i) {
            Expect e{Expect::Kind::Sweep, "prefill", hot_[i].name, hot_shape_};
            prefill.push_back(Scheduled{0.0, i % connections_,
                                        "p" + std::to_string(i),
                                        requestLine("p" + std::to_string(i), e)});
            expects.push_back(e);
        }
        exchange(run, prefill, expects);
        prefill.clear();
        expects.clear();
        for (unsigned c = 0; c < connections_; ++c) {
            Expect e{Expect::Kind::Sweep, "warm-up", hot_[c % hot_.size()].name,
                     hot_shape_};
            const std::string id = "w" + std::to_string(c);
            prefill.push_back(Scheduled{0.0, c, id, requestLine(id, e)});
            expects.push_back(e);
        }
        exchange(run, prefill, expects);
        if (!queryStats(daemon_->socketPath(), &stats_before_))
            throw std::runtime_error("pipesimd did not answer stats");
    }

    /** Run the schedule; @return the replies. */
    std::vector<Response> drive(Clock::time_point start)
    {
        return driveOpenLoop(schedule_, fds_, start, 10000.0);
    }

    const std::vector<Scheduled> &schedule() const { return schedule_; }
    const std::vector<Expect> &expects() const { return expects_; }
    DaemonProcess &daemon() { return *daemon_; }
    const JsonValue &statsBefore() const { return stats_before_; }
    const std::vector<WorkloadSpec> &hot() const { return hot_; }
    const SweepShape &hotShape() const { return hot_shape_; }

    void stop()
    {
        closeConnections();
        if (daemon_)
            daemon_->stop();
    }

  private:
    static std::string requestLine(const std::string &id, const Expect &e)
    {
        std::string line = e.shape.requestLine(
            id, e.workload, e.kind == Expect::Kind::Optimum ? "optimum" : "sweep");
        line.pop_back();
        return line + ", \"metric_exponent\": " + std::to_string(e.exponent) + "}";
    }

    void exchange(Run &run, const std::vector<Scheduled> &reqs,
                  const std::vector<Expect> &expects)
    {
        const auto replies = driveOpenLoop(reqs, fds_, Clock::now(), 30000.0);
        for (std::size_t i = 0; i < reqs.size(); ++i)
            run.op(checkReply(run, expects[i], replies[i]));
    }

    /**
     * A shape no other request of the run uses. Cold requests are long
     * and span eight depths, so simulating a cell costs several times
     * storing it: every store is an fsync, whose latency on a shared
     * disk swings several-fold, and the tail is made of cold requests.
     */
    static SweepShape coldShape(std::size_t seq)
    {
        SweepShape s;
        s.length = 100000 + 17 * seq;
        s.warmup = 20000;
        s.min_depth = 2;
        s.max_depth = 9;
        s.reference_depth = 5;
        return s;
    }

    void buildSchedule(Rng &rng, double seconds)
    {
        const double window_ms = seconds * 1e3;
        const std::size_t n = static_cast<std::size_t>(kRatePerS * seconds);
        // Cold computes arrive evenly spaced, with jitter, so two rarely
        // queue behind each other: the tail then measures a cold compute
        // and the warm traffic queued behind it, not how many colds a
        // seed happened to bunch together. Everything else arrives at
        // uniformly random times.
        const std::size_t n_cold = static_cast<std::size_t>(kColdPerS * seconds);
        // (time, kind): 0 cold sweep, 1 narrow step, 2 anything else.
        std::vector<std::pair<double, int>> arrivals;
        for (std::size_t k = 0; k < n; ++k) {
            if (k < n_cold)
                arrivals.emplace_back(
                    (k + rng.uniform(0.25, 0.75)) * window_ms / n_cold,
                    k % 3 == 0 ? 0 : 1);
            else
                arrivals.emplace_back(rng.uniform(0.0, window_ms), 2);
        }
        std::sort(arrivals.begin(), arrivals.end());

        const auto &catalog = workloadCatalog();
        std::size_t cold_seq = 0;
        // A narrow request names two depths of a cell chain; the lower
        // one was computed by the chain's previous step, so all but a
        // chain's first step simulate a single depth (the D=1 walk).
        struct Chain
        {
            std::string workload;
            SweepShape shape;
            double last_ms;
        };
        std::vector<Chain> chains;
        // The rest: warm repeat, stats, health or malformed.
        const std::vector<double> other_kinds = {0.93, 0.025, 0.025, 0.02};
        for (std::size_t i = 0; i < n; ++i) {
            const double at = arrivals[i].first;
            Expect e;
            const std::string id = "r" + std::to_string(i);
            const int exponent = 1 + static_cast<int>(rng.below(3));
            const std::size_t kind =
                arrivals[i].second < 2
                    ? static_cast<std::size_t>(arrivals[i].second)
                    : 2 + rng.weighted(other_kinds);
            switch (kind) {
              case 0:
                e = Expect{rng.bernoulli(0.67) ? Expect::Kind::Sweep
                                               : Expect::Kind::Optimum,
                           "cold", catalog[rng.below(catalog.size())].name,
                           coldShape(cold_seq++), exponent};
                break;
              case 1: {
                Chain *chain = nullptr;
                for (Chain &c : chains) {
                    if (at - c.last_ms >= 1500.0 && c.shape.max_depth < 25) {
                        chain = &c;
                        break;
                    }
                }
                if (chain) {
                    ++chain->shape.min_depth;
                    ++chain->shape.max_depth;
                    chain->shape.reference_depth = chain->shape.min_depth;
                } else {
                    SweepShape s = coldShape(cold_seq++);
                    s.min_depth = 2 + static_cast<int>(rng.below(12));
                    s.max_depth = s.min_depth + 1;
                    s.reference_depth = s.min_depth;
                    chains.push_back(
                        Chain{catalog[rng.below(catalog.size())].name, s, 0.0});
                    chain = &chains.back();
                }
                chain->last_ms = at;
                e = Expect{Expect::Kind::Sweep, "narrow", chain->workload,
                           chain->shape, exponent};
                break;
              }
              case 2:
                e = Expect{Expect::Kind::Sweep, "warm",
                           hot_[rng.below(hot_.size())].name, hot_shape_,
                           exponent};
                if (rng.bernoulli(0.25))
                    e.kind = Expect::Kind::Optimum;
                break;
              case 3:
                e = Expect{Expect::Kind::Stats, "stats"};
                break;
              case 4:
                e = Expect{Expect::Kind::Health, "health"};
                break;
              default:
                e = Expect{Expect::Kind::Error, "malformed"};
                break;
            }
            Scheduled s{at, i % connections_, id, ""};
            switch (e.kind) {
              case Expect::Kind::Stats:
                s.line = "{\"id\": \"" + id + "\", \"type\": \"stats\"}";
                break;
              case Expect::Kind::Health:
                s.line = "{\"id\": \"" + id + "\", \"type\": \"health\"}";
                break;
              case Expect::Kind::Error:
                switch (rng.below(4)) {
                  case 0:
                    s.id.clear(); // an unparseable line carries no id
                    s.line = "{\"id\": \"" + id + "\", \"type\": \"sweep\", ";
                    e.code = "bad_json";
                    break;
                  case 1:
                    s.line = "{\"id\": \"" + id +
                             "\", \"type\": \"sweep\", \"workload\": "
                             "\"no_such_workload\"}";
                    e.code = "unknown_workload";
                    break;
                  case 2:
                    s.line = "{\"id\": \"" + id +
                             "\", \"type\": \"sweep\", \"workload\": \"db1\", "
                             "\"min_depth\": 20, \"max_depth\": 10}";
                    e.code = "bad_range";
                    break;
                  default:
                    s.line = "{\"id\": \"" + id +
                             "\", \"type\": \"sweep\", \"workload\": \"db1\", "
                             "\"depth\": 8}";
                    e.code = "bad_request";
                    break;
                }
                break;
              default:
                s.line = requestLine(id, e);
                break;
            }
            schedule_.push_back(std::move(s));
            expects_.push_back(std::move(e));
        }
    }

    void closeConnections()
    {
        for (int fd : fds_)
            ::close(fd);
        fds_.clear();
    }

    unsigned connections_;
    SweepShape hot_shape_;
    std::vector<WorkloadSpec> hot_;
    std::vector<Scheduled> schedule_;
    std::vector<Expect> expects_;
    std::unique_ptr<DaemonProcess> daemon_;
    std::vector<int> fds_;
    JsonValue stats_before_;
};

// ---------------------------------------------------------------------
// Daemon phase attribution, shared by every workload's traced run
// ---------------------------------------------------------------------

/** Per-layer server numbers from done lines and stats deltas. */
void
recordServerLayers(Run &run, const std::vector<Scheduled> &schedule,
                   const std::vector<Response> &replies,
                   const JsonValue &stats_before, const JsonValue &stats_after,
                   bool counts)
{
    std::map<std::string, std::vector<double>> phases;
    std::vector<double> unattributed, late;
    double cached = 0.0, computed = 0.0;
    for (std::size_t i = 0; i < replies.size(); ++i) {
        const Response &r = replies[i];
        late.push_back(r.sent_ms - schedule[i].at_ms);
        if (!r.answered || r.lines.empty())
            continue;
        const JsonValue &done = r.lines.back();
        const JsonValue *p = done.find("phase_us");
        if (!p)
            continue;
        double sum = 0.0;
        for (const char *k : {"queue", "parse", "batch", "engine", "serialize"}) {
            const JsonValue *v = p->find(k);
            const double us = v && v->isNumber() ? v->number : 0.0;
            phases[k].push_back(us);
            sum += us;
        }
        unattributed.push_back(1e3 * (r.done_ms - r.sent_ms) - sum);
        if (const JsonValue *c = done.find("cached"))
            cached += c->number;
        if (const JsonValue *c = done.find("computed"))
            computed += c->number;
    }
    for (const char *k : {"queue", "batch", "engine", "serialize"}) {
        const std::string base = std::string("server.") + k + "_us";
        run.layers.add(base + ".p50", quantile(phases[k], 0.50));
        run.layers.add(base + ".p99", quantile(phases[k], 0.99));
    }
    run.layers.add("server.unattributed_us", median(unattributed));
    run.layers.add("loadgen.late_ms", quantile(late, 0.99));
    const double batches = statsCounter(stats_after, "server.batch.runs") -
                           statsCounter(stats_before, "server.batch.runs");
    const double admitted = statsCounter(stats_after, "server.request.admitted") -
                            statsCounter(stats_before, "server.request.admitted");
    run.layers.add("server.batch_requests", batches > 0 ? admitted / batches : 0.0);
    if (counts) {
        run.counts["sweep.cells_computed"] = computed;
        run.counts["sweep.cache_hits"] = cached;
        run.counts["sweep.traces_generated"] =
            statsCounter(stats_after, "sweep.trace.generate") -
            statsCounter(stats_before, "sweep.trace.generate");
        run.counts["sweep.instructions_simulated"] =
            statsCounter(stats_after, "sweep.instructions.simulate") -
            statsCounter(stats_before, "sweep.instructions.simulate");
    }
}

/**
 * The traced run's service leg for an in-process workload: its sweeps
 * sent to a fresh pipesimd, each once cold and once warm, spaced so
 * they do not queue behind each other.
 */
void
serviceLeg(Run &run, const std::vector<std::pair<std::string, SweepShape>> &reqs,
           double spacing_ms)
{
    const std::string dir = run.dir + "/service";
    fs::create_directories(dir);
    DaemonProcess daemon(daemonBinary(), dir, dir + "/cache", kDaemonThreads,
                         false);
    if (!daemon.ready())
        throw std::runtime_error("pipesimd did not start for the service leg");
    const int fd = connectUnix(daemon.socketPath());
    if (fd < 0)
        throw std::runtime_error("cannot connect to pipesimd");
    JsonValue before, after;
    queryStats(daemon.socketPath(), &before);
    std::vector<Scheduled> schedule;
    std::vector<Expect> expects;
    for (int pass = 0; pass < 2; ++pass) {
        for (const auto &[workload, shape] : reqs) {
            const std::string id = "s" + std::to_string(schedule.size());
            schedule.push_back(
                Scheduled{spacing_ms * static_cast<double>(schedule.size()), 0,
                          id, shape.requestLine(id, workload)});
            expects.push_back(Expect{Expect::Kind::Sweep,
                                     pass ? "service-warm" : "service-cold",
                                     workload, shape});
        }
    }
    const auto replies = driveOpenLoop(schedule, {fd}, Clock::now(), 30000.0);
    ::close(fd);
    queryStats(daemon.socketPath(), &after);
    for (std::size_t i = 0; i < replies.size(); ++i)
        run.op(checkReply(run, expects[i], replies[i]));
    recordServerLayers(run, schedule, replies, before, after, false);
    daemon.stop();
}

// ---------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------

template <typename SetUp>
void
setUpRepeatedly(Run &run, SetUp &&setUp)
{
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const std::string dir = run.dir + "/setup" + std::to_string(rep);
        const auto t0 = rep == 0 ? run.process_start : Clock::now();
        setUp(dir);
        run.setup_s.push_back(msSince(t0) / 1e3);
        if (rep > 0) // keep only the state the timed phase uses
            fs::remove_all(run.dir + "/setup" + std::to_string(rep - 1));
    }
}

/**
 * In-process timed loop: ops back to back for --seconds of host time.
 * An op's latency is the process's CPU time across it, so time the
 * hypervisor gave this vCPU to other guests is not charged to the
 * program; host time is kept as a diagnostic. Traced: each iteration
 * runs the op plainly, then again with the program's span tracer on
 * (the tracing overhead), then the attribution pass.
 */
template <typename Draw, typename Op, typename Attribute>
void
inProcessLoop(Run &run, Draw &&draw, Op &&op, Attribute &&attribute)
{
    run.cpu_timed = true;
    const Stopwatch phase;
    std::size_t iter = 0;
    while (phase.elapsed().wall_ms < run.args.seconds * 1e3 ||
           (run.args.trace && iter < kCountedOps)) {
        const auto in = draw();
        bool ok = false;
        const OpTime t = op(in, nullptr, &ok);
        if (!run.args.trace) {
            run.latencies_ms.push_back(t.cpu_ms);
            run.wall_ms.push_back(t.wall_ms);
            run.good += ok;
        } else {
            run.untraced_ms.push_back(t.cpu_ms);
            SpanTracer::instance().clear();
            SpanTracer::instance().setEnabled(true);
            SweepCounters c;
            run.traced_ms.push_back(op(in, &c, nullptr).cpu_ms);
            SpanTracer::instance().setEnabled(false);
            SpanTracer::instance().clear();
            if (iter < kCountedOps)
                addCounts(run, c);
            attribute(in);
        }
        ++iter;
    }
    const OpTime t = phase.elapsed();
    run.timed_s = t.cpu_ms / 1e3;
    run.timed_wall_s = t.wall_ms / 1e3;
}

void
runGridCold(Run &run)
{
    const CpuRotation rotation(kRotationMs);
    GridCold w(run.args.seed);
    setUpRepeatedly(run, [&](const std::string &dir) { w.setUp(run, dir); });
    std::vector<WorkloadSpec> last;
    inProcessLoop(
        run, [&] { return w.draw(); },
        [&](const std::vector<WorkloadSpec> &specs, SweepCounters *c, bool *ok) {
            return w.op(run, specs, c, ok);
        },
        [&](const std::vector<WorkloadSpec> &specs) {
            w.attribute(run, specs);
            last = specs;
        });
    if (run.args.trace)
        serviceLeg(run, w.serviceRequests(last), 400.0);
}

void
runTapeResweep(Run &run)
{
    const CpuRotation rotation(kRotationMs);
    TapeResweep w(run.args.seed);
    setUpRepeatedly(run, [&](const std::string &dir) { w.setUp(run, dir); });
    inProcessLoop(
        run, [&] { return w.draw(); },
        [&](std::size_t tape, SweepCounters *c, bool *ok) {
            return w.op(run, tape, w.engine(), c, ok);
        },
        [&](std::size_t tape) { w.attribute(run, tape); });
    if (run.args.trace) {
        w.probeOtherLayers(run);
        serviceLeg(run, w.serviceRequests(), 1000.0);
    }
}

/**
 * One pass of the daemon schedule; fills latencies when @p timed. The
 * timed phase runs from the schedule's start to the last reply.
 */
std::vector<Response>
daemonPass(Run &run, DaemonMixed &w, bool timed)
{
    std::vector<Response> replies;
    {
        const CpuRotation rotation(kRotationMs, w.daemon().pid());
        replies = w.drive(Clock::now());
    }
    double end_ms = 0.0;
    for (std::size_t i = 0; i < replies.size(); ++i) {
        const Response &r = replies[i];
        if (r.answered)
            end_ms = std::max(end_ms, r.done_ms);
        // An unanswered request misses every latency limit.
        const double latency = r.answered ? r.done_ms - w.schedule()[i].at_ms
                                          : 1e9;
        const bool ok = run.op(checkReply(run, w.expects()[i], r));
        if (timed) {
            run.latencies_ms.push_back(latency);
            run.good += ok && latency <= DaemonMixed::kLatencyLimitMs;
        }
    }
    if (timed)
        run.timed_s = end_ms / 1e3;
    return replies;
}

void
runDaemonMixed(Run &run)
{
    const long ncpu = ::sysconf(_SC_NPROCESSORS_ONLN);
    const unsigned conns =
        static_cast<unsigned>(std::clamp<long>(ncpu, 1, 4));
    DaemonMixed w(run.args.seed, run.args.seconds, conns);
    setUpRepeatedly(run, [&](const std::string &dir) {
        w.setUp(run, dir, run.dir + "/daemon-cache", false);
    });

    std::vector<Response> replies = daemonPass(run, w, !run.args.trace);
    run.peak_rss_mb = peakRssMb(w.daemon().pid());
    if (!run.args.trace) {
        w.stop();
        return;
    }
    // Traced: the untraced pass above, then the same schedule against a
    // fresh daemon that also writes its access log, with the stats
    // verb read before and after.
    for (std::size_t i = 0; i < replies.size(); ++i) {
        if (replies[i].answered && w.expects()[i].kind != Expect::Kind::Error)
            run.untraced_ms.push_back(replies[i].done_ms - w.schedule()[i].at_ms);
    }
    w.stop();
    w.setUp(run, run.dir + "/traced", run.dir + "/traced/cache", true);
    const JsonValue before = w.statsBefore();
    replies = daemonPass(run, w, false);
    for (std::size_t i = 0; i < replies.size(); ++i) {
        if (replies[i].answered && w.expects()[i].kind != Expect::Kind::Error)
            run.traced_ms.push_back(replies[i].done_ms - w.schedule()[i].at_ms);
    }
    JsonValue after;
    if (!queryStats(w.daemon().socketPath(), &after))
        run.op({"pipesimd did not answer stats after the traced pass"});
    recordServerLayers(run, w.schedule(), replies, before, after, true);
    w.stop();

    // In-process layers on the hot set's own inputs.
    const std::string cache_dir = run.dir + "/probe-cache";
    const std::string engine_dir = run.dir + "/probe-engine";
    for (std::size_t i = 0; i < 2; ++i) {
        const WorkloadSpec &spec = w.hot()[i];
        const auto t0 = Clock::now();
        {
            SweepEngine engine(engineOptions(engine_dir, 1));
            engine.runGrid({spec}, w.hotShape().options());
        }
        const double engine_ms = msSince(t0);
        const ResultCache cache(cache_dir);
        Decomposed d = decomposeSpecSweep(spec, w.hotShape(), cache, run.dir,
                                          i == 0, run.checker, run.layers);
        run.op(d.failures);
        run.layers.add("sweep.engine_unattributed_ms",
                       engine_ms - d.compute_ms - d.cache_ms);
    }
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/**
 * In-process workloads report op CPU time (cpu_p50_ms, cpu_tail_ms) and
 * goodput per CPU second; daemon-mixed reports open-loop latency and
 * goodput per host second as p50_ms, tail_ms and goodput_per_s.
 */
std::vector<Metric>
endToEnd(const Run &run)
{
    const Tail tail = tailOf(run.latencies_ms);
    const std::string p = run.cpu_timed ? "cpu_" : "";
    return {
        {"setup_s", median(run.setup_s), "s"},
        {p + "p50_ms", median(run.latencies_ms), "ms"},
        {p + "tail_ms", tail.value, "ms"},
        {run.cpu_timed ? "goodput_per_cpu_s" : "goodput_per_s",
         run.timed_s > 0 ? static_cast<double>(run.good) / run.timed_s : 0.0,
         "1/s"},
        {"peak_rss_mb", run.peak_rss_mb, "MiB"},
    };
}

std::vector<Metric>
perLayer(const Run &run, const HostProbe &probe)
{
    const LayerSamples &l = run.layers;
    std::vector<Metric> m = {
        {"trace.generate_ms", l.median("trace.generate_ms"), "ms"},
        {"trace.read_ms", l.median("trace.read_ms"), "ms"},
        {"trace.prepare_ms", l.median("trace.prepare_ms"), "ms"},
        {"uarch.annotate_ms", l.median("uarch.annotate_ms"), "ms"},
        {"uarch.walk_d1_ns", l.median("uarch.walk_d1_ns"), "ns"},
        {"uarch.walk_d4_ns", l.median("uarch.walk_d4_ns"), "ns"},
        {"uarch.walk_d24_ns", l.median("uarch.walk_d24_ns"), "ns"},
        {"uarch.fused_d24_speedup", l.median("uarch.fused_d24_speedup"), "ratio"},
        {"sweep.key_spec_us", l.median("sweep.key_spec_us"), "us"},
        {"sweep.key_trace_ms", l.median("sweep.key_trace_ms"), "ms"},
        {"sweep.cache_load_us", l.median("sweep.cache_load_us"), "us"},
        {"sweep.cache_store_ms", l.median("sweep.cache_store_ms"), "ms"},
        {"sweep.serialize_us", l.median("sweep.serialize_us"), "us"},
        {"sweep.deserialize_us", l.median("sweep.deserialize_us"), "us"},
        {"sweep.engine_unattributed_ms",
         l.median("sweep.engine_unattributed_ms"), "ms"},
        {"calib.extract_us", l.median("calib.extract_us"), "us"},
        {"core.solve_us", l.median("core.solve_us"), "us"},
        {"server.parse_us", l.median("server.parse_us"), "us"},
        {"server.render_us", l.median("server.render_us"), "us"},
    };
    for (const char *k : {"queue", "batch", "engine", "serialize"}) {
        for (const char *q : {"p50", "p99"}) {
            const std::string name =
                std::string("server.") + k + "_us." + q;
            m.push_back({name, l.median(name), "us"});
        }
    }
    m.push_back({"server.unattributed_us", l.median("server.unattributed_us"), "us"});
    m.push_back({"server.batch_requests", l.median("server.batch_requests"),
                 "requests"});
    m.push_back({"loadgen.late_ms", l.median("loadgen.late_ms"), "ms"});
    for (const char *k : {"sweep.cells_computed", "sweep.cache_hits",
                          "sweep.traces_generated", "sweep.instructions_simulated"}) {
        const auto it = run.counts.find(k);
        m.push_back({k, it == run.counts.end() ? 0.0 : it->second, "count"});
    }
    m.push_back({"host.cpu_probe_ms", probe.cpu_probe_ms, "ms"});
    m.push_back({"host.fsync_us", probe.fsync_us, "us"});
    m.push_back({"tracing.overhead_ms",
                 median(run.traced_ms) - median(run.untraced_ms), "ms"});
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    Run run;
    run.process_start = Clock::now();
    if (!parseArgs(argc, argv, &run.args)) {
        std::fprintf(stderr,
                     "usage: pdbench --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--golden FILE] [--work-dir DIR]\n");
        return 2;
    }
    run.dir = run.args.work_dir + "/" + run.args.workload + "-" +
              std::to_string(::getpid());
    fs::remove_all(run.dir);
    fs::create_directories(run.dir);

    HostProbe start_probe, end_probe;
    int rc = 0;
    try {
        start_probe = probeHost(run.dir);
        if (run.args.workload == "grid-cold")
            runGridCold(run);
        else if (run.args.workload == "tape-resweep")
            runTapeResweep(run);
        else if (run.args.workload == "daemon-mixed")
            runDaemonMixed(run);
        else
            throw std::runtime_error("unknown workload " + run.args.workload);
        end_probe = probeHost(run.dir);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pdbench: %s\n", e.what());
        rc = 1;
    }
    if (run.peak_rss_mb == 0.0)
        run.peak_rss_mb = peakRssMb();
    std::error_code ec;
    fs::remove_all(run.dir, ec);
    if (rc != 0)
        return rc;

    const Tail tail = tailOf(run.latencies_ms);
    std::ostringstream report;
    report << "{\"report\": {\"workload\": " << jsonQuote(run.args.workload)
           << ", \"trace\": " << (run.args.trace ? 1 : 0)
           << ", \"provenance\": "
           << provenanceJson(run.args.seed, kEngineThreads, kDaemonThreads)
           << ", \"host_probe\": {\"start\": {\"cpu_probe_ms\": "
           << num(start_probe.cpu_probe_ms)
           << ", \"fsync_us\": " << num(start_probe.fsync_us)
           << "}, \"end\": {\"cpu_probe_ms\": " << num(end_probe.cpu_probe_ms)
           << ", \"fsync_us\": " << num(end_probe.fsync_us) << "}}"
           << ", \"setup_reps_s\": [";
    for (std::size_t i = 0; i < run.setup_s.size(); ++i)
        report << (i ? ", " : "") << num(run.setup_s[i]);
    report << "], \"latency_deciles_ms\": [";
    for (int d = 1; d <= 9; ++d)
        report << (d > 1 ? ", " : "") << num(quantile(run.latencies_ms, d / 10.0));
    report << "], \"timed_ops\": " << run.latencies_ms.size()
           << ", \"timed_s\": " << num(run.timed_s)
           << ", \"latency_clock\": "
           << (run.cpu_timed ? "\"process_cpu\"" : "\"host\"");
    if (run.cpu_timed && !run.wall_ms.empty()) {
        report << ", \"host_time\": {\"p50_ms\": " << num(median(run.wall_ms))
               << ", \"tail_ms\": " << num(tailOf(run.wall_ms).value)
               << ", \"goodput_per_s\": "
               << num(run.timed_wall_s > 0
                          ? static_cast<double>(run.good) / run.timed_wall_s
                          : 0.0)
               << ", \"timed_s\": " << num(run.timed_wall_s) << "}";
    }
    report << ", \"tail_percentile\": " << num(tail.percentile)
           << ", \"checks\":{\"golden\": " << run.checker.goldenChecks()
           << ", \"first_seen\": " << run.checker.firstSeenChecks() << "}";
    if (run.args.trace) {
        report << ", \"tracing\": {\"untraced_p50_ms\": "
               << num(median(run.untraced_ms))
               << ", \"traced_p50_ms\": " << num(median(run.traced_ms))
               << ", \"pairs\": " << run.traced_ms.size() << "}";
    }
    report << ", \"failures\": [";
    for (std::size_t i = 0; i < run.failure_examples.size(); ++i)
        report << (i ? ", " : "") << jsonQuote(run.failure_examples[i]);
    report << "]}}";
    std::cout << report.str() << "\n";

    const HostProbe mid{0.5 * (start_probe.cpu_probe_ms + end_probe.cpu_probe_ms),
                        0.5 * (start_probe.fsync_us + end_probe.fsync_us)};
    const std::vector<Metric> metrics =
        run.args.trace ? perLayer(run, mid) : endToEnd(run);
    std::cout << "{\"correct\": " << (run.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << run.attempted
              << ", \"failed\": " << run.failed
              << ", \"metrics\": " << metricsJson(metrics) << "}" << std::endl;
    return 0;
}
