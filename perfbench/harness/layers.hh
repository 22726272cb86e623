/**
 * @file
 * Per-layer decomposition of one sweep for the traced run.
 *
 * The traced run times the calls into each module's public functions
 * from here, in the engine's order: key -> probe -> generate ->
 * prepare -> annotate -> walk -> serialize -> store -> analysis. The
 * layer sums are returned so the caller can charge the rest of an
 * engine call of the same op to `sweep.engine_unattributed_ms`: an
 * engine without a cache runs the compute layers, one with a cache the
 * cache layers too.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <map>
#include <string>
#include <vector>

#include "checker.hh"
#include "sweep/depth_sweep.hh"
#include "sweep/result_cache.hh"
#include "uarch/pipeline_config.hh"
#include "uarch/sim_result.hh"
#include "workloads/catalog.hh"

namespace perfbench
{

/** Per-layer samples of a traced run, reported as medians. */
class LayerSamples
{
  public:
    void add(const std::string &name, double v) { samples_[name].push_back(v); }
    /** Median of @p name's samples; 0 when there are none. */
    double median(const std::string &name) const;

  private:
    std::map<std::string, std::vector<double>> samples_;
};

/** The trace shape and depth range of one sweep. */
struct SweepShape
{
    std::size_t length = kGoldenLength;
    std::size_t warmup = kGoldenWarmup;
    int min_depth = 2;
    int max_depth = 25;
    int reference_depth = 8;

    pipedepth::SweepOptions options() const;
    std::vector<pipedepth::PipelineConfig> configs() const;
    bool golden() const
    {
        return length == kGoldenLength && warmup == kGoldenWarmup;
    }
    /** The pipesimd request line asking for exactly this sweep. */
    std::string requestLine(const std::string &id, const std::string &workload,
                            const char *type = "sweep") const;
};

/** The checker key of one (workload, shape, depth) cell. */
std::string cellKey(const std::string &workload, const SweepShape &shape,
                    int depth);

/** Outcome of one decomposed sweep. */
struct Decomposed
{
    double compute_ms = 0.0; //!< generate + prepare + annotate + walk
    double cache_ms = 0.0;   //!< key + probe/load + store
    std::vector<std::string> failures; //!< correctness-check failures
};

/**
 * Run one catalog workload's sweep at @p shape as separate layer calls
 * into @p cache (which should not yet hold these cells), record each
 * layer's time in @p samples and check every result with @p checker.
 * Also times the layers this sweep's engine call would not run —
 * trace keys, a tape round trip, cache-hit loads, deserialization and
 * the protocol's parse and render — on the same inputs, so every
 * layer is measured on every workload. With @p walk_widths the walk is
 * timed at one, four and all depths per pass as well.
 */
Decomposed decomposeSpecSweep(const pipedepth::WorkloadSpec &spec,
                              const SweepShape &shape,
                              const pipedepth::ResultCache &cache,
                              const std::string &scratch_dir, bool walk_widths,
                              ResultChecker &checker, LayerSamples &samples);

/**
 * Run one warm tape re-sweep as layer calls: readTrace, traceCellKey
 * per configuration, then a cache load (which must hit) per cell.
 * @p key_prefix names the tape in the checker's first-seen keys.
 */
Decomposed decomposeTapeSweep(const std::string &tape_path,
                              const std::string &key_prefix,
                              const std::vector<pipedepth::PipelineConfig> &configs,
                              const pipedepth::ResultCache &cache,
                              ResultChecker &checker, LayerSamples &samples);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
