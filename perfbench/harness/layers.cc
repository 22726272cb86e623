#include "layers.hh"

#include <cstdio>
#include <sstream>

#include "calib/extract.hh"
#include "core/optimum_solver.hh"
#include "server/protocol.hh"
#include "sweep/cache_key.hh"
#include "trace/replay_buffer.hh"
#include "trace/trace_io.hh"
#include "uarch/multi_depth_walk.hh"
#include "uarch/replay_annotations.hh"
#include "uarch/simulator.hh"
#include "util.hh"

namespace perfbench
{

using namespace pipedepth;

double
LayerSamples::median(const std::string &name) const
{
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : perfbench::median(it->second);
}

SweepOptions
SweepShape::options() const
{
    SweepOptions opt;
    opt.min_depth = min_depth;
    opt.max_depth = max_depth;
    opt.reference_depth = reference_depth;
    opt.trace_length = length;
    opt.warmup_instructions = warmup;
    return opt;
}

std::vector<PipelineConfig>
SweepShape::configs() const
{
    const SweepOptions opt = options();
    std::vector<PipelineConfig> out;
    for (int d = min_depth; d <= max_depth; ++d)
        out.push_back(opt.configAtDepth(d));
    return out;
}

std::string
SweepShape::requestLine(const std::string &id, const std::string &workload,
                        const char *type) const
{
    std::ostringstream os;
    os << "{\"id\": \"" << id << "\", \"type\": \"" << type
       << "\", \"workload\": \"" << workload << "\", \"min_depth\": " << min_depth
       << ", \"max_depth\": " << max_depth
       << ", \"reference_depth\": " << reference_depth
       << ", \"trace_length\": " << length << ", \"warmup\": " << warmup << "}";
    return os.str();
}

std::string
cellKey(const std::string &workload, const SweepShape &shape, int depth)
{
    return workload + ":" + std::to_string(shape.length) + ":" +
           std::to_string(shape.warmup) + ":" + std::to_string(depth);
}

namespace
{

/** Time @p fn in milliseconds. */
template <typename Fn>
double
timeMs(Fn &&fn)
{
    const auto t0 = Clock::now();
    fn();
    return msSince(t0);
}

/** Host nanoseconds per (instruction x depth) of a walk. */
double
nsPerInstrDepth(double ms, std::size_t instructions, std::size_t depths)
{
    return ms * 1e6 /
           (static_cast<double>(instructions) * static_cast<double>(depths));
}

} // namespace

Decomposed
decomposeSpecSweep(const WorkloadSpec &spec, const SweepShape &shape,
                   const ResultCache &cache, const std::string &scratch_dir,
                   bool walk_widths, ResultChecker &checker,
                   LayerSamples &samples)
{
    Decomposed out;
    const std::vector<PipelineConfig> configs = shape.configs();
    const std::size_t n = configs.size();

    // The engine's own sequence for a cold cell group.
    std::vector<CacheKey> keys(n);
    const double key_ms = timeMs([&] {
        for (std::size_t i = 0; i < n; ++i)
            keys[i] = simCellKey(spec, shape.length, configs[i]);
    });
    samples.add("sweep.key_spec_us", key_ms * 1e3 / static_cast<double>(n));

    std::size_t stale_hits = 0;
    const double probe_ms = timeMs([&] {
        for (const CacheKey &k : keys)
            stale_hits += cache.load(k).has_value();
    });
    if (stale_hits != 0)
        out.failures.push_back("decomposition cache was not empty");

    Trace trace;
    const double gen_ms = timeMs([&] { trace = spec.makeTrace(shape.length); });
    samples.add("trace.generate_ms", gen_ms);

    ReplayBuffer replay;
    const double prep_ms = timeMs([&] { replay = prepareReplay(trace); });
    samples.add("trace.prepare_ms", prep_ms);

    ReplayAnnotations ann;
    const double ann_ms =
        timeMs([&] { ann = annotateReplay(replay, configs.front()); });
    samples.add("uarch.annotate_ms", ann_ms);

    std::vector<SimResult> results;
    const double walk_ms =
        timeMs([&] { results = simulateMultiDepth(replay, ann, configs); });
    samples.add("uarch.walk_d24_ns", nsPerInstrDepth(walk_ms, replay.size(), n));

    std::vector<std::vector<std::uint8_t>> bytes(n);
    const double ser_ms = timeMs([&] {
        for (std::size_t i = 0; i < n; ++i)
            bytes[i] = serializeSimResult(results[i]);
    });
    samples.add("sweep.serialize_us", ser_ms * 1e3 / static_cast<double>(n));

    std::size_t stored = 0;
    const double store_ms = timeMs([&] {
        for (std::size_t i = 0; i < n; ++i)
            stored += cache.store(keys[i], results[i]);
    });
    if (stored != n)
        out.failures.push_back("cache store failed for " + spec.name);
    samples.add("sweep.cache_store_ms", store_ms);

    const SimResult &ref =
        results[static_cast<std::size_t>(shape.reference_depth - shape.min_depth)];
    MachineParams mp;
    const double extract_ms = timeMs([&] { mp = extractMachineParams(ref); });
    samples.add("calib.extract_us", extract_ms * 1e3);
    OptimumResult opt;
    const double solve_ms = timeMs(
        [&] { opt = OptimumSolver(mp, PowerParams{}).solveExact(3.0); });
    samples.add("core.solve_us", solve_ms * 1e3);

    out.compute_ms = gen_ms + prep_ms + ann_ms + walk_ms;
    out.cache_ms = key_ms + probe_ms + store_ms;

    for (std::size_t i = 0; i < n; ++i) {
        const std::string why = checker.checkCell(
            cellKey(spec.name, shape, results[i].depth), results[i],
            shape.golden());
        if (!why.empty())
            out.failures.push_back(why);
    }

    // Layers this sweep's engine call does not run, timed on the same
    // inputs: cache-hit loads, deserialization, trace-digest keys, a
    // tape round trip and the wire protocol.
    std::size_t hits = 0;
    const double load_ms = timeMs([&] {
        for (const CacheKey &k : keys)
            hits += cache.load(k).has_value();
    });
    if (hits != n)
        out.failures.push_back("stored cells did not load back for " + spec.name);
    samples.add("sweep.cache_load_us", load_ms * 1e3 / static_cast<double>(n));

    std::size_t decoded = 0;
    const double deser_ms = timeMs([&] {
        for (const auto &b : bytes) {
            SimResult r;
            decoded += deserializeSimResult(b, &r);
        }
    });
    if (decoded != n)
        out.failures.push_back("serialized cells did not decode for " + spec.name);
    samples.add("sweep.deserialize_us", deser_ms * 1e3 / static_cast<double>(n));

    std::vector<CacheKey> trace_keys(n);
    samples.add("sweep.key_trace_ms", timeMs([&] {
                    for (std::size_t i = 0; i < n; ++i)
                        trace_keys[i] = traceCellKey(trace, configs[i]);
                }));

    const std::string tape = scratch_dir + "/layer-probe.pptr";
    writeTrace(trace, tape);
    Trace back;
    samples.add("trace.read_ms", timeMs([&] { back = readTrace(tape); }));
    if (back.size() != trace.size())
        out.failures.push_back("tape round trip changed the trace of " + spec.name);
    std::remove(tape.c_str());

    const std::string line = shape.requestLine("layer-probe", spec.name);
    ServerRequest request;
    std::string code, message;
    bool parsed = false;
    samples.add("server.parse_us", 1e3 * timeMs([&] {
                    parsed = parseServerRequest(line, &request, &code, &message);
                }));
    if (!parsed)
        out.failures.push_back("protocol refused " + line + ": " + message);
    std::size_t rendered = 0;
    samples.add("server.render_us", 1e3 * timeMs([&] {
                    for (const SimResult &r : results)
                        rendered += cellResponseLine("layer-probe", "t", r,
                                                     r.bips())
                                        .size();
                    DoneInfo info;
                    info.cells = n;
                    info.computed = n;
                    info.optimum = opt.p_opt;
                    rendered += doneResponseLine("layer-probe", info).size();
                }));
    if (rendered == 0)
        out.failures.push_back("protocol rendered nothing");

    if (walk_widths) {
        // The same walk one depth per pass and four depths per pass,
        // so the fused kernel's gain is a same-run ratio.
        std::vector<SimResult> single(n);
        const double d1_ms = timeMs([&] {
            for (std::size_t i = 0; i < n; ++i)
                single[i] = simulate(replay, ann, configs[i]);
        });
        samples.add("uarch.walk_d1_ns", nsPerInstrDepth(d1_ms, replay.size(), n));
        samples.add("uarch.fused_d24_speedup", d1_ms / walk_ms);
        const double d4_ms = timeMs([&] {
            for (std::size_t b = 0; b + 4 <= n; b += 4) {
                const std::vector<PipelineConfig> four(
                    configs.begin() + static_cast<std::ptrdiff_t>(b),
                    configs.begin() + static_cast<std::ptrdiff_t>(b + 4));
                simulateMultiDepth(replay, ann, four);
            }
        });
        samples.add("uarch.walk_d4_ns",
                    nsPerInstrDepth(d4_ms, replay.size(), n - n % 4));
        for (std::size_t i = 0; i < n; ++i) {
            if (resultHash(single[i]) != resultHash(results[i]))
                out.failures.push_back("D=1 walk differs from the fused walk "
                                       "for " + spec.name);
        }
    }
    return out;
}

Decomposed
decomposeTapeSweep(const std::string &tape_path, const std::string &key_prefix,
                   const std::vector<PipelineConfig> &configs,
                   const ResultCache &cache, ResultChecker &checker,
                   LayerSamples &samples)
{
    Decomposed out;
    const std::size_t n = configs.size();
    Trace trace;
    samples.add("trace.read_ms", timeMs([&] { trace = readTrace(tape_path); }));

    std::vector<CacheKey> keys(n);
    const double key_ms = timeMs([&] {
        for (std::size_t i = 0; i < n; ++i)
            keys[i] = traceCellKey(trace, configs[i]);
    });
    samples.add("sweep.key_trace_ms", key_ms);

    std::vector<std::optional<SimResult>> loaded(n);
    const double load_ms = timeMs([&] {
        for (std::size_t i = 0; i < n; ++i)
            loaded[i] = cache.load(keys[i]);
    });
    samples.add("sweep.cache_load_us", load_ms * 1e3 / static_cast<double>(n));
    out.cache_ms = key_ms + load_ms;

    for (std::size_t i = 0; i < n; ++i) {
        if (!loaded[i]) {
            out.failures.push_back("tape cell missed the filled cache");
            continue;
        }
        const std::string why =
            checker.checkCell(key_prefix + ":" + std::to_string(configs[i].depth),
                              *loaded[i], false);
        if (!why.empty())
            out.failures.push_back(why);
    }

    // Deserialization alone, on the entry bytes as stored.
    std::vector<std::vector<std::uint8_t>> entries;
    for (const CacheKey &k : keys) {
        std::FILE *f = std::fopen(cache.entryPath(k).c_str(), "rb");
        if (!f)
            continue;
        std::vector<std::uint8_t> b;
        std::uint8_t buf[4096];
        std::size_t got = 0;
        while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
            b.insert(b.end(), buf, buf + got);
        std::fclose(f);
        entries.push_back(std::move(b));
    }
    std::size_t decoded = 0;
    const double deser_ms = timeMs([&] {
        for (const auto &b : entries) {
            SimResult r;
            decoded += deserializeSimResult(b, &r);
        }
    });
    if (entries.size() != n || decoded != n)
        out.failures.push_back("cache entries did not deserialize");
    else
        samples.add("sweep.deserialize_us",
                    deser_ms * 1e3 / static_cast<double>(n));
    return out;
}

} // namespace perfbench
