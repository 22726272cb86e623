#include "checker.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "sweep/result_cache.hh"

namespace perfbench
{

std::uint64_t
resultHash(const pipedepth::SimResult &r)
{
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint8_t b : pipedepth::serializeSimResult(r))
        h = (h ^ b) * 1099511628211ull;
    return h;
}

bool
ResultChecker::loadGolden(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read golden table " + path;
        return false;
    }
    std::string line;
    std::size_t rows = 0;
    while (std::getline(in, line)) {
        char name[64];
        int depth = 0;
        std::uint64_t hash = 0, ledger = 0;
        if (std::sscanf(line.c_str(),
                        " {\"%63[^\"]\", %d, 0x%" SCNx64 "ull, 0x%" SCNx64
                        "ull}",
                        name, &depth, &hash, &ledger) == 4) {
            golden_[{name, depth}] = Golden{hash, ledger};
            ++rows;
        }
    }
    if (rows == 0) {
        *error = "no golden rows in " + path;
        return false;
    }
    return true;
}

std::string
ResultChecker::checkCell(const std::string &key, const pipedepth::SimResult &r,
                         bool golden_shape)
{
    if (r.cycles == 0)
        return "hole (cycles == 0) at " + key;
    if (r.ledger_residual != 0)
        return "nonzero ledger residual at " + key;
    const std::uint64_t h = resultHash(r);
    if (golden_shape) {
        const auto it = golden_.find({r.workload, r.depth});
        if (it != golden_.end()) {
            ++golden_checks_;
            if (it->second.hash != h)
                return "result hash differs from the golden table at " + key;
            if (it->second.ledger_hash != pipedepth::ledgerHash(r))
                return "ledger hash differs from the golden table at " + key;
        }
    }
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016" PRIx64, h);
    return checkFirstSeen(key, digest);
}

std::string
ResultChecker::checkFirstSeen(const std::string &key, const std::string &digest)
{
    const auto [it, inserted] = first_.emplace(key, digest);
    if (inserted)
        return "";
    ++first_seen_checks_;
    return it->second == digest ? "" : "differs from its first resolution: " + key;
}

} // namespace perfbench
