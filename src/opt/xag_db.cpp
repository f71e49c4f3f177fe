#include "opt/xag_db.h"

#include <vector>

namespace gfr::opt::internal {

XagDatabase::XagDatabase() {
    // Layered BFS over tree cost.  buckets[c] lists the truth tables first
    // discovered at cost c; combining a cost-c1 and a cost-c2 function
    // yields a cost-(c1+c2+1) candidate, and scanning total cost in
    // ascending order makes every first discovery minimal.
    std::vector<std::vector<std::uint16_t>> buckets(
        static_cast<std::size_t>(kMaxDatabaseGates) + 1);

    const auto discover = [&](std::uint16_t tt, const Entry& e) {
        if (entries_[tt].cost >= 0) {
            return;  // already discovered at equal or lower cost
        }
        entries_[tt] = e;
        buckets[static_cast<std::size_t>(e.cost)].push_back(tt);
    };

    discover(0x0000, Entry{0, false, 0, 0});
    for (const std::uint16_t leaf : kLeafTruth) {
        discover(leaf, Entry{0, false, leaf, leaf});
    }

    for (int total = 1; total <= kMaxDatabaseGates; ++total) {
        for (int c1 = 0; 2 * c1 <= total - 1; ++c1) {
            const int c2 = total - 1 - c1;
            const auto& lhs = buckets[static_cast<std::size_t>(c1)];
            const auto& rhs = buckets[static_cast<std::size_t>(c2)];
            for (std::size_t i = 0; i < lhs.size(); ++i) {
                const std::size_t j_begin = (c1 == c2) ? i + 1 : 0;
                for (std::size_t j = j_begin; j < rhs.size(); ++j) {
                    const std::uint16_t fa = lhs[i];
                    const std::uint16_t fb = rhs[j];
                    const auto cost = static_cast<std::int8_t>(total);
                    discover(static_cast<std::uint16_t>(fa & fb),
                             Entry{cost, true, fa, fb});
                    discover(static_cast<std::uint16_t>(fa ^ fb),
                             Entry{cost, false, fa, fb});
                }
            }
        }
    }
}

const XagDatabase& XagDatabase::instance() {
    static const XagDatabase db;
    return db;
}

}  // namespace gfr::opt::internal
