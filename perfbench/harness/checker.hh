/**
 * @file
 * Output correctness check of the benchmark.
 *
 * Cells of the golden shape (trace length 30000, warmup 10000) at the
 * pinned depths are checked against both hashes of the repository's
 * golden table, which is read, never written. Every other result is
 * checked against the first time its key was resolved in the same
 * run. A hole (cycles == 0) or a nonzero ledger residual always fails.
 */

#ifndef PERFBENCH_CHECKER_HH
#define PERFBENCH_CHECKER_HH

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "uarch/sim_result.hh"

namespace perfbench
{

/** Trace length and warmup of the golden table's cells. */
inline constexpr std::size_t kGoldenLength = 30000;
inline constexpr std::size_t kGoldenWarmup = 10000;

/** FNV-1a over serializeSimResult, the golden table's first hash. */
std::uint64_t resultHash(const pipedepth::SimResult &r);

class ResultChecker
{
  public:
    struct Golden
    {
        std::uint64_t hash = 0;
        std::uint64_t ledger_hash = 0;
    };

    /**
     * Read the golden table (rows `{"name", depth, 0x..ull, 0x..ull},`).
     * @return false, with a reason in @p error, when the file is
     *         missing or holds no rows.
     */
    bool loadGolden(const std::string &path, std::string *error);

    /** Replace or add one golden row in memory (the self-test's hook). */
    void setGolden(const std::string &workload, int depth, Golden g)
    {
        golden_[{workload, depth}] = g;
    }

    bool hasGolden(const std::string &workload, int depth) const
    {
        return golden_.count({workload, depth}) != 0;
    }

    /**
     * Check one simulated cell. @p key identifies the cell within the
     * run; @p golden_shape says the cell was simulated at the golden
     * trace length and warmup, so a golden row for (workload, depth)
     * applies. @return "" when correct, else the reason.
     */
    std::string checkCell(const std::string &key, const pipedepth::SimResult &r,
                          bool golden_shape);

    /**
     * Check any other output (a daemon line, an analysis result) by
     * its digest against the first digest seen under @p key.
     */
    std::string checkFirstSeen(const std::string &key, const std::string &digest);

    std::size_t goldenChecks() const { return golden_checks_; }
    std::size_t firstSeenChecks() const { return first_seen_checks_; }

  private:
    std::map<std::pair<std::string, int>, Golden> golden_;
    std::unordered_map<std::string, std::string> first_;
    std::size_t golden_checks_ = 0;
    std::size_t first_seen_checks_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_CHECKER_HH
