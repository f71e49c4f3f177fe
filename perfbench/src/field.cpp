// Workload `field`: binary-curve scalar multiplication kP over the five NIST
// ECDSA degrees, moduli from gf2::first_type2_irreducible, on the curve
// y^2 + xy = x^3 + x^2 + b.  The base point comes from half-trace
// decompression, as in examples/ecc_b163.cpp.  Each seeded scalar is
// computed twice: by the x-only Lopez-Dahab Montgomery ladder (mul/sqr
// bound, one inversion) and by affine double-and-add (one Field::inv per
// group operation).  Loads field and gf2; nothing else.
//
// A pass is one kP per degree per formula (an equal-count mix).
// part_a_s = the five ladders, part_b_s = the five affine runs;
// op_p50_ms = ladder latency (the middle degree, 283, at equal counts).

#include "common.h"

#include "field/field_catalog.h"
#include "field/gf2m.h"
#include "gf2/pentanomial.h"

#include <cstdio>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>

namespace pb {
namespace {

using namespace gfr;
using Element = field::Field::Element;

constexpr int kScalars = 64;  ///< seeded scalars per degree, cycled by pass

struct Counts {
    double mul = 0;
    double sqr = 0;
    double inv = 0;
};

struct Point {
    bool infinity = true;
    Element x;
    Element y;
};

/// Field arithmetic with optional call counting (traced passes).
struct Arith {
    const field::Field* f = nullptr;
    Counts* counts = nullptr;

    Element mul(const Element& a, const Element& b) const {
        if (counts != nullptr) {
            ++counts->mul;
        }
        return f->mul(a, b);
    }
    Element sqr(const Element& a) const {
        if (counts != nullptr) {
            ++counts->sqr;
        }
        return f->sqr(a);
    }
    Element inv(const Element& a) const {
        if (counts != nullptr) {
            ++counts->inv;
        }
        return f->inv(a);
    }
    Element add(const Element& a, const Element& b) const { return f->add(a, b); }
};

/// Curve y^2 + xy = x^3 + x^2 + b (a = 1).
struct Curve {
    const field::Field* f = nullptr;
    Element b;
    Point base;

    [[nodiscard]] bool on_curve(const Point& p) const {
        if (p.infinity) {
            return true;
        }
        const Element x2 = f->sqr(p.x);
        const Element lhs = f->add(f->sqr(p.y), f->mul(p.x, p.y));
        const Element rhs = f->add(f->add(f->mul(x2, p.x), x2), b);
        return lhs == rhs;
    }

    [[nodiscard]] std::optional<Point> lift_x(const Element& x) const {
        if (x.is_zero()) {
            return std::nullopt;
        }
        const Element x2 = f->sqr(x);
        const Element rhs = f->add(f->add(f->mul(x2, x), x2), b);
        const auto z = f->solve_quadratic(f->mul(rhs, f->inv(x2)));
        if (!z) {
            return std::nullopt;
        }
        return Point{false, x, f->mul(x, *z)};
    }

    static Point dbl(const Arith& a, const Point& p) {
        if (p.infinity || p.x.is_zero()) {
            return Point{};
        }
        const Element lambda = a.add(p.x, a.mul(p.y, a.inv(p.x)));
        const Element x3 = a.add(a.add(a.sqr(lambda), lambda), a.f->one());
        const Element y3 = a.add(a.sqr(p.x), a.add(a.mul(lambda, x3), x3));
        return Point{false, x3, y3};
    }

    static Point add(const Arith& a, const Point& p, const Point& q) {
        if (p.infinity) {
            return q;
        }
        if (q.infinity) {
            return p;
        }
        if (p.x == q.x) {
            return p.y == q.y ? dbl(a, p) : Point{};
        }
        const Element lambda = a.mul(a.add(p.y, q.y), a.inv(a.add(p.x, q.x)));
        const Element x3 =
            a.add(a.add(a.add(a.sqr(lambda), lambda), a.add(p.x, q.x)), a.f->one());
        const Element y3 = a.add(a.add(a.mul(lambda, a.add(p.x, x3)), x3), p.y);
        return Point{false, x3, y3};
    }

    /// Left-to-right affine double-and-add; k has its top bit at m - 1.
    [[nodiscard]] Point affine_mul(const Arith& a, const std::vector<bool>& k) const {
        Point q = base;
        for (std::size_t i = k.size() - 1; i-- > 0;) {
            q = dbl(a, q);
            if (k[i]) {
                q = add(a, q, base);
            }
        }
        return q;
    }

    /// x(kP) by the Lopez-Dahab x-only Montgomery ladder in projective
    /// (X : Z) coordinates, one inversion at the end.
    [[nodiscard]] Element ladder_x(const Arith& a, const std::vector<bool>& k) const {
        const Element& x = base.x;
        Element x1 = x;
        Element z1 = a.f->one();
        Element z2 = a.sqr(x);
        Element x2 = a.add(a.sqr(z2), b);
        const auto madd = [&](Element& xa, Element& za, const Element& xb, const Element& zb) {
            const Element t1 = a.mul(xa, zb);
            const Element t2 = a.mul(xb, za);
            za = a.sqr(a.add(t1, t2));
            xa = a.add(a.mul(x, za), a.mul(t1, t2));
        };
        const auto mdouble = [&](Element& xa, Element& za) {
            const Element xx = a.sqr(xa);
            const Element zz = a.sqr(za);
            za = a.mul(xx, zz);
            xa = a.add(a.sqr(xx), a.mul(b, a.sqr(zz)));
        };
        for (std::size_t i = k.size() - 1; i-- > 0;) {
            if (k[i]) {
                madd(x1, z1, x2, z2);
                mdouble(x2, z2);
            } else {
                madd(x2, z2, x1, z1);
                mdouble(x1, z1);
            }
        }
        return a.mul(x1, a.inv(z1));
    }
};

struct Degree {
    int m = 0;
    std::optional<field::Field> f;
    Curve curve;
    std::vector<std::vector<bool>> scalars;
    Counts counts;  ///< traced passes
    std::vector<double> mul_ns;
    std::vector<double> sqr_ns;
    std::vector<double> inv_ns;
};

class FieldWorkload final : public Workload {
public:
    void set_up(Trace& setup_trace) override {
        setup_trace.span("field.construct_s", [&] {
            for (const int m : field::nist_ecdsa_degrees()) {
                const auto penta = gf2::first_type2_irreducible(m);
                if (!penta) {
                    throw std::runtime_error{"field: no type II pentanomial of degree " +
                                             std::to_string(m)};
                }
                Degree d;
                d.m = m;
                d.f.emplace(penta->poly());
                degrees_.push_back(std::move(d));
            }
        });
        for (Degree& d : degrees_) {
            const field::Field& f = *d.f;
            d.curve.f = &f;
            d.curve.b = f.from_bits(0x4ADF91);
            for (std::uint64_t xv = 2;; ++xv) {
                if (const auto p = d.curve.lift_x(f.from_bits(xv))) {
                    d.curve.base = *p;
                    break;
                }
            }
        }
    }

    void make_inputs(std::uint64_t seed) override {
        Rng rng{seed};
        for (Degree& d : degrees_) {
            for (int s = 0; s < kScalars; ++s) {
                std::vector<bool> k(static_cast<std::size_t>(d.m));
                for (auto&& bit : k) {
                    bit = (rng.next() & 1U) != 0;
                }
                k.back() = true;
                d.scalars.push_back(std::move(k));
            }
            std::mt19937_64 mt{rng.next()};
            for (int i = 0; i < 256; ++i) {
                operands_[d.m].push_back(d.f->random_element(mt));
            }
        }
    }

    PassStats pass(Trace* trace) override {
        PassStats st;
        const std::size_t round = passes_++;
        for (Degree& d : degrees_) {
            speed_checkpoint();
            const Arith a{&*d.f, trace != nullptr ? &d.counts : nullptr};
            const auto& k = d.scalars[round % d.scalars.size()];
            auto t0 = Clock::now();
            const Element lx = d.curve.ladder_x(a, k);
            const double ladder_s = seconds_since(t0);
            t0 = Clock::now();
            const Point q = d.curve.affine_mul(a, k);
            const double affine_s = seconds_since(t0);
            st.part_a_s += ladder_s;
            st.part_b_s += affine_s;
            st.op_ms.push_back(scaled_ms(ladder_s));
            st.ops += 2;
            if (q.infinity || !(q.x == lx) || !d.curve.on_curve(q)) {
                st.failed += 2;
            }
            if (trace != nullptr) {
                probe(d);
            }
        }
        st.pass_s = st.part_a_s + st.part_b_s;
        if (trace == nullptr) {
            ladder_s_ += st.part_a_s;
            affine_s_ += st.part_b_s;
            kp_each_ += static_cast<double>(degrees_.size());
        } else {
            for (Degree& d : degrees_) {
                const std::string m = "." + std::to_string(d.m);
                trace->add("field.mul_calls" + m, d.counts.mul);
                trace->add("field.inv_calls" + m, d.counts.inv);
                d.counts = Counts{};
            }
            trace->add("trace.unattributed_s", 0.0);
        }
        return st;
    }

    long check(std::vector<std::string>& log) override {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "field ladder x(kP) == affine x(kP) and kP on curve, checked for every "
                      "kP of %zu passes",
                      passes_);
        log.emplace_back(buf);
        return 0;
    }

    [[nodiscard]] std::vector<Figure> figures() const override {
        return {
            {"ladder_kp_per_s", kp_each_ / ladder_s_, "1/s"},
            {"affine_kp_per_s", kp_each_ / affine_s_, "1/s"},
        };
    }

    void finish_trace(Trace& trace, int /*traced_passes*/) override {
        for (const Degree& d : degrees_) {
            const std::string m = "." + std::to_string(d.m);
            trace.set("field.mul_ns" + m, median(d.mul_ns));
            trace.set("field.sqr_ns" + m, median(d.sqr_ns));
            trace.set("field.inv_ns" + m, median(d.inv_ns));
        }
    }

private:
    /// ns per mul / sqr / inv on the seeded operand pool.
    void probe(Degree& d) {
        const field::Field& f = *d.f;
        const auto& ops = operands_[d.m];
        Element acc = f.zero();
        auto t0 = Clock::now();
        for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
            acc = f.add(acc, f.mul(ops[i], ops[i + 1]));
        }
        d.mul_ns.push_back(seconds_since(t0) * 1e9 / static_cast<double>(ops.size() - 1));
        t0 = Clock::now();
        for (const Element& e : ops) {
            acc = f.add(acc, f.sqr(e));
        }
        d.sqr_ns.push_back(seconds_since(t0) * 1e9 / static_cast<double>(ops.size()));
        constexpr std::size_t kInv = 32;
        t0 = Clock::now();
        for (std::size_t i = 0; i < kInv; ++i) {
            acc = f.add(acc, f.inv(ops[i].is_zero() ? f.one() : ops[i]));
        }
        d.inv_ns.push_back(seconds_since(t0) * 1e9 / static_cast<double>(kInv));
        sink_ ^= static_cast<std::uint64_t>(acc.weight());
    }

    std::vector<Degree> degrees_;
    std::map<int, std::vector<Element>> operands_;
    std::size_t passes_ = 0;
    double ladder_s_ = 0.0;
    double affine_s_ = 0.0;
    double kp_each_ = 0.0;
    std::uint64_t sink_ = 0;  ///< keeps probe results observable
};

}  // namespace

std::unique_ptr<Workload> make_field() { return std::make_unique<FieldWorkload>(); }

}  // namespace pb
