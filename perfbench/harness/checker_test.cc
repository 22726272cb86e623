/**
 * @file
 * Self-test of the benchmark's correctness check: a correct cell
 * passes, and a deliberately wrong expected hash, a hole, a nonzero
 * ledger residual and a changed re-resolution each count as a failure.
 *
 *   pdbench_selftest tests/sweep/golden_sim_hashes.inc
 */

#include <cstdio>
#include <string>

#include "checker.hh"
#include "layers.hh"
#include "sweep/sweep_engine.hh"
#include "workloads/catalog.hh"

using namespace pipedepth;
using namespace perfbench;

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    failures += !ok;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: pdbench_selftest GOLDEN_TABLE\n");
        return 2;
    }
    const std::string golden = argv[1];

    SweepOptions opt;
    opt.trace_length = kGoldenLength;
    opt.warmup_instructions = kGoldenWarmup;
    SweepEngineOptions eo;
    eo.threads = 1;
    eo.use_cache = false;
    SweepEngine engine(eo);
    const WorkloadSpec &spec = findWorkload("db1");
    const Trace trace = spec.makeTrace(kGoldenLength);
    const SimResult cell = engine.runConfigs(trace, {opt.configAtDepth(7)}).at(0);
    SweepShape shape;
    const std::string key = cellKey("db1", shape, 7);

    {
        ResultChecker c;
        std::string error;
        expect(c.loadGolden(golden, &error), "golden table loads");
        expect(c.checkCell(key, cell, true).empty(),
               "a correct golden cell passes");
        expect(c.goldenChecks() == 1, "the golden row was consulted");
        expect(c.checkCell(key, cell, true).empty(),
               "an identical re-resolution passes");
    }
    {
        ResultChecker c;
        std::string error;
        c.loadGolden(golden, &error);
        c.setGolden("db1", 7, ResultChecker::Golden{resultHash(cell) ^ 1,
                                                    ledgerHash(cell)});
        expect(!c.checkCell(key, cell, true).empty(),
               "a wrong expected result hash fails the cell");
        c.setGolden("db1", 7, ResultChecker::Golden{resultHash(cell),
                                                    ledgerHash(cell) ^ 1});
        expect(!c.checkCell(key, cell, true).empty(),
               "a wrong expected ledger hash fails the cell");
    }
    {
        ResultChecker c;
        SimResult hole = cell;
        hole.cycles = 0;
        expect(!c.checkCell(key, hole, false).empty(), "a hole fails");
        SimResult residual = cell;
        residual.ledger_residual = 3;
        expect(!c.checkCell(key, residual, false).empty(),
               "a nonzero ledger residual fails");
        expect(c.checkCell(key, cell, false).empty(), "first resolution passes");
        SimResult drift = cell;
        drift.cycles += 1;
        expect(!c.checkCell(key, drift, false).empty(),
               "a re-resolution that differs fails");
        expect(c.checkFirstSeen("line", "b").empty(),
               "a new digest key is its own first resolution");
        expect(!c.checkFirstSeen("line", "c").empty(),
               "a differing digest under a seen key fails");
    }
    std::printf("%s\n", failures ? "checker self-test FAILED"
                                 : "checker self-test passed");
    return failures ? 1 : 0;
}
