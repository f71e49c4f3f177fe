// [8] Rashidi/Farashahi/Sayedi reconstruction (the exact gate netlist of the
// pipelined original is not published): every product coefficient is one
// balanced XOR tree over ALL partial products that reduce onto it — the
// fully-flattened reduced ANF.  This is the minimum-depth organisation
// (T_A + ceil(log2 |terms|) T_X) at the cost of foregoing cross-coefficient
// sharing, matching the Table V signature of [8]: lowest delay, LUT count
// above [3]/this-work.  Every table and bench uses this reconstruction as
// [8].

#include "mastrovito/reduction_matrix.h"
#include "multipliers/generator.h"
#include "multipliers/product_layer.h"

namespace gfr::mult {

netlist::Netlist build_rashidi_direct(const field::Field& field) {
    const int m = field.degree();
    const mastrovito::ReductionMatrix q{field.modulus()};

    netlist::Netlist nl;
    ProductLayer pl{nl, m};

    // All terms of convolution coefficient d_k with the mirror pairs
    // (a_i*b_j + a_j*b_i) pre-folded into z nodes: the product-pair layer is
    // then shared across every coefficient using the same pair, and the
    // depth is unchanged (2t products take ceil(log2 2t) levels either way).
    auto d_terms = [&](int k, std::vector<netlist::NodeId>& leaves) {
        const int lo_min = std::max(0, k - (m - 1));
        for (int i = lo_min; 2 * i <= k; ++i) {
            const int j = k - i;
            if (j > m - 1) {
                continue;
            }
            leaves.push_back(i == j ? pl.x_term(i) : pl.z_term(i, j));
        }
    };

    for (int k = 0; k < m; ++k) {
        std::vector<netlist::NodeId> leaves;
        d_terms(k, leaves);  // d_k itself
        for (const int i : q.t_indices_for_coefficient(k)) {
            d_terms(m + i, leaves);  // every d_(m+i) folding onto c_k
        }
        nl.add_output(coeff_name(k), nl.make_xor_tree(leaves, netlist::TreeShape::Balanced));
    }
    return nl;
}

}  // namespace gfr::mult
