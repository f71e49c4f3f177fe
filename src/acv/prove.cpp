// prove_multiplier: backward algebraic rewriting of every output column,
// sharded over verify::Campaign.  Column k's sweep rewrites the c_k driver
// down to primary inputs and checks the canonical ANF against column k of
// the reference signature with ColumnChecker, which counts the column and
// tests each monomial's membership without building it; a mismatch builds
// the sorted column for the residual and the witness.  Columns are
// independent and results land in per-column slots, so the campaign's
// globally-minimum failing sweep IS the lowest divergent column — the
// verdict and the counterexample are bit-identical at any thread count.

#include "acv/acv.h"

#include "verify/campaign.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

namespace gfr::acv {

using field::Field;
using netlist::Netlist;
using netlist::NodeId;

std::string ProofFailure::to_string() const {
    if (blowup) {
        return "c" + std::to_string(column) + " algebraic blowup: " +
               std::to_string(residual_monomials) +
               " monomials in flight [repro: algebraic column=" +
               std::to_string(column) + " cap=" + std::to_string(monomial_cap) +
               "]";
    }
    return "c" + std::to_string(column) + " algebraic mismatch: residual=" +
           std::to_string(residual_monomials) + " monomials, netlist=" +
           std::to_string(static_cast<int>(netlist_bit)) + " reference=" +
           std::to_string(static_cast<int>(reference_bit)) + " for A=" +
           witness_a.to_string() + ", B=" + witness_b.to_string() +
           " [repro: algebraic column=" + std::to_string(column) + "]";
}

namespace {

/// The multiplier interface, resolved by NAME rather than port position:
/// prove_multiplier accepts netlists whose output list carries extra lanes
/// beside c0..c(m-1) — the proof simply never expands them, so they are
/// excluded from the signature.
struct PortMap {
    std::vector<NodeId> a_nodes;
    std::vector<NodeId> b_nodes;
    std::vector<NodeId> c_drivers;
};

PortMap resolve_ports(const Netlist& nl, int m) {
    if (static_cast<int>(nl.inputs().size()) != 2 * m) {
        throw std::invalid_argument{
            "prove_multiplier: expected " + std::to_string(2 * m) +
            " inputs (a0..a" + std::to_string(m - 1) + ", b0..b" +
            std::to_string(m - 1) + "), got " +
            std::to_string(nl.inputs().size())};
    }
    PortMap ports;
    ports.a_nodes.resize(static_cast<std::size_t>(m));
    ports.b_nodes.resize(static_cast<std::size_t>(m));
    ports.c_drivers.resize(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
        const int ai = nl.input_index("a" + std::to_string(i));
        const int bi = nl.input_index("b" + std::to_string(i));
        const int ci = nl.output_index("c" + std::to_string(i));
        if (ai < 0 || bi < 0 || ci < 0) {
            throw std::invalid_argument{
                "prove_multiplier: missing multiplier port a" +
                std::to_string(i) + "/b" + std::to_string(i) + "/c" +
                std::to_string(i)};
        }
        const NodeId an = nl.inputs()[static_cast<std::size_t>(ai)].node;
        const NodeId bn = nl.inputs()[static_cast<std::size_t>(bi)].node;
        ports.a_nodes[static_cast<std::size_t>(i)] = an;
        ports.b_nodes[static_cast<std::size_t>(i)] = bn;
        ports.c_drivers[static_cast<std::size_t>(i)] =
            nl.outputs()[static_cast<std::size_t>(ci)].node;
    }
    return ports;
}

/// Mismatch counterexample without simulation: the residual (netlist ANF
/// xor spec) is nonzero; a residual monomial of minimal variable count is
/// minimal by inclusion, so setting exactly its variables to 1 fires that
/// one monomial and no other — the netlist bit and the reference bit differ
/// at that assignment by construction.
ProofFailure mismatch_failure(int column, const std::vector<Monomial>& anf,
                              const ColumnChecker& checker, const Field& field) {
    const std::vector<Monomial> spec = checker.column(column);
    std::vector<Monomial> residual;
    std::set_symmetric_difference(anf.begin(), anf.end(), spec.begin(),
                                  spec.end(), std::back_inserter(residual));
    ProofFailure failure;
    failure.column = column;
    failure.residual_monomials = residual.size();
    const Monomial* minimal = &residual.front();
    for (const Monomial& mono : residual) {
        if (mono.count < minimal->count) {
            minimal = &mono;
        }
    }
    gf2::Poly a;
    gf2::Poly b;
    const int m = field.degree();
    for (int i = 0; i < minimal->count; ++i) {
        const int bit = checker.operand_bit(minimal->vars[static_cast<std::size_t>(i)]);
        if (bit < m) {
            a.set_coeff(bit, true);
        } else {
            b.set_coeff(bit - m, true);
        }
    }
    failure.witness_a = a;
    failure.witness_b = b;
    failure.reference_bit = field.mul(a, b).coeff(column);
    failure.netlist_bit = !failure.reference_bit;
    return failure;
}

}  // namespace

std::optional<ProofFailure> prove_multiplier(const Netlist& nl,
                                             const Field& field,
                                             const ProveOptions& options,
                                             ProofStats* stats) {
    const int m = field.degree();
    const PortMap ports = resolve_ports(nl, m);
    const ColumnChecker checker{field.modulus(), ports.a_nodes, ports.b_nodes};

    // Per-COLUMN result slots: a worker only ever writes slot k while owning
    // sweep k, so there is no cross-worker contention, and the campaign's
    // minimum failing sweep picks the winner deterministically.
    std::vector<std::optional<ProofFailure>> failures(
        static_cast<std::size_t>(m));
    std::vector<ColumnExpander::Stats> column_stats(static_cast<std::size_t>(m));
    std::vector<std::size_t> column_monomials(static_cast<std::size_t>(m), 0);

    // Column proofs are few (m sweeps) and individually heavy — shard down
    // to one sweep per worker, claimed one at a time.
    verify::Campaign campaign{{.threads = options.threads,
                               .min_sweeps_per_worker = 1,
                               .chunk = 1}};
    const auto factory = [&](int) -> verify::Campaign::SweepFn {
        auto expander = std::make_shared<ColumnExpander>(nl);
        auto anf = std::make_shared<std::vector<Monomial>>();
        return [&, expander, anf](std::uint64_t sweep) -> bool {
            const int k = static_cast<int>(sweep);
            const auto status = expander->expand(
                ports.c_drivers[static_cast<std::size_t>(k)],
                options.max_monomials, *anf,
                &column_stats[static_cast<std::size_t>(k)]);
            if (status != ColumnExpander::Status::Ok) {
                ProofFailure failure;
                failure.column = k;
                failure.blowup = true;
                failure.monomial_cap = options.max_monomials;
                failure.residual_monomials =
                    column_stats[static_cast<std::size_t>(k)].peak_monomials;
                failures[static_cast<std::size_t>(k)] = std::move(failure);
                return true;
            }
            column_monomials[static_cast<std::size_t>(k)] = anf->size();
            if (checker.matches(k, *anf)) {
                return false;
            }
            failures[static_cast<std::size_t>(k)] =
                mismatch_failure(k, *anf, checker, field);
            return true;
        };
    };

    const std::uint64_t failing =
        campaign.run(static_cast<std::uint64_t>(m), factory);
    if (failing != verify::kNoFailure) {
        return failures[static_cast<std::size_t>(failing)];
    }
    if (stats != nullptr) {
        *stats = {};
        stats->columns = m;
        stats->spec_monomials = checker.total_monomials();
        for (int k = 0; k < m; ++k) {
            stats->netlist_monomials +=
                column_monomials[static_cast<std::size_t>(k)];
            stats->expansion_events +=
                column_stats[static_cast<std::size_t>(k)].expansion_events;
            stats->peak_column_monomials = std::max(
                stats->peak_column_monomials,
                column_stats[static_cast<std::size_t>(k)].peak_monomials);
        }
    }
    return std::nullopt;
}

}  // namespace gfr::acv
