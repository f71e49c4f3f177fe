#include "gf2/word_fold.h"

#include <stdexcept>

namespace gfr::gf2 {

WordFold::WordFold(const Poly& modulus) : m_{modulus.degree()}, tails_{modulus.support()} {
#if defined(GFR_USE_PCLMUL) && defined(__PCLMUL__) && defined(__GNUC__)
    // Compiled for PCLMULQDQ: fail loudly here rather than SIGILL later when
    // this binary lands on a CPU without it (rebuild with
    // -DGFR_ENABLE_PCLMUL=OFF for a portable binary).
    if (!__builtin_cpu_supports("pclmul")) {
        throw std::runtime_error{
            "WordFold: built with GFR_USE_PCLMUL but this CPU lacks PCLMULQDQ"};
    }
#endif
    if (!tails_.empty()) {
        tails_.pop_back();  // y^m itself
    }
    // Cluster-fold precomputation: constant tail plus one <64-bit cluster of
    // nonzero tails, all far enough below m that a top-down fold never
    // re-deposits at or above the word being folded.
    if (tails_.size() >= 2 && tails_.front() == 0 && tails_.back() < m_ - 63 &&
        tails_.back() - tails_[1] < 64) {
        cluster_shift_ = tails_[1];
        for (std::size_t k = 1; k < tails_.size(); ++k) {
            cluster_mask_ |= std::uint64_t{1} << (tails_[k] - cluster_shift_);
        }
        cluster_fold_ok_ = true;
    }
}

}  // namespace gfr::gf2
