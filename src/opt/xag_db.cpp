#include "opt/xag_db.h"

#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace gfr::opt::internal {

XagDatabase::XagDatabase(int max_gates) : max_gates_(max_gates) {
    // Layered BFS over tree cost.  buckets[c] lists the truth tables first
    // discovered at cost c; combining a cost-c1 and a cost-c2 function
    // yields a cost-(c1+c2+1) candidate, and scanning total cost in
    // ascending order makes every first discovery minimal.
    std::vector<std::vector<std::uint16_t>> buckets(
        static_cast<std::size_t>(max_gates) + 1);

    const auto discover = [&](std::uint16_t tt, const Entry& e) {
        if (entries_[tt].cost >= 0) {
            return;  // already discovered at equal or lower cost
        }
        entries_[tt] = e;
        buckets[static_cast<std::size_t>(e.cost)].push_back(tt);
        ++size_;
    };

    discover(0x0000, Entry{0, false, 0, 0});
    for (const std::uint16_t leaf : kLeafTruth) {
        discover(leaf, Entry{0, false, leaf, leaf});
    }

    for (int total = 1; total <= max_gates; ++total) {
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

const XagDatabase& XagDatabase::instance(int max_gates) {
    if (max_gates < 1) {
        max_gates = 1;
    }
    if (max_gates > kMaxDatabaseGates) {
        max_gates = kMaxDatabaseGates;  // enumeration cost grows fast; 7
                                        // already covers every cut a
                                        // <=4-leaf MFFC can free
    }
    static std::mutex mutex;
    static std::map<int, std::unique_ptr<XagDatabase>> registry;
    const std::lock_guard<std::mutex> lock{mutex};
    auto& slot = registry[max_gates];
    if (!slot) {
        slot.reset(new XagDatabase(max_gates));
    }
    return *slot;
}

}  // namespace gfr::opt::internal
