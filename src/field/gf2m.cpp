#include "field/gf2m.h"

#include "gf2/irreducibility.h"
#include "gf2/pentanomial.h"

#include <stdexcept>

namespace gfr::field {

using gf2::Poly;

namespace {

/// Low word of a canonical element (elements of single-word fields have at
/// most one word by the degree < m invariant).
std::uint64_t word_of(const Field::Element& e) noexcept {
    return e.words().empty() ? 0 : e.words()[0];
}

/// True when the u64 fast path may read this operand whole.  Non-canonical
/// inputs of degree >= 64 must take the generic path (which reduces them)
/// rather than being silently truncated to their low word.
bool fits_word(const Field::Element& e) noexcept { return e.words().size() <= 1; }

}  // namespace

Field::Field(Poly modulus) : modulus_{std::move(modulus)}, m_{modulus_.degree()} {
    if (m_ < 2) {
        throw std::invalid_argument{"Field: modulus degree must be >= 2"};
    }
    if (!gf2::is_irreducible(modulus_)) {
        throw std::invalid_argument{"Field: modulus is not irreducible: " +
                                    modulus_.to_string()};
    }
    ops_ = std::make_shared<FieldOps>(modulus_);
}

Field::Element Field::element_from_word(std::uint64_t w) const {
    Element e;
    e.assign_word(w);
    return e;
}

Field Field::type2(int m, int n) {
    return Field{gf2::TypeIIPentanomial{m, n}.poly()};
}

bool Field::is_element(const Element& e) const noexcept { return e.degree() < m_; }

Field::Element Field::add(const Element& a, const Element& b) const { return a + b; }

Field::Element Field::reduce(const gf2::Poly& p) const {
    Element out = p;
    ops_->reduce_in_place(out);
    return out;
}

Field::Element Field::mul(const Element& a, const Element& b) const {
    if (ops_->single_word() && fits_word(a) && fits_word(b)) {
        return element_from_word(ops_->mul(word_of(a), word_of(b)));
    }
    Element out;
    ops_->mul(a, b, out);
    return out;
}

Field::Element Field::sqr(const Element& a) const {
    if (ops_->single_word() && fits_word(a)) {
        return element_from_word(ops_->sqr(word_of(a)));
    }
    Element out;
    ops_->sqr(a, out);
    return out;
}

Field::Element Field::mul_reference(const Element& a, const Element& b) const {
    Poly prod;
    Poly::mul_comb_into(a, b, prod);  // independent of the clmul/Karatsuba path
    return prod % modulus_;
}

Field::Element Field::sqr_reference(const Element& a) const {
    return a.square() % modulus_;
}

Field::Element Field::pow(const Element& a, std::uint64_t e) const {
    if (ops_->single_word() && fits_word(a)) {
        return element_from_word(ops_->pow(word_of(a), e));
    }
    Element result = one();
    Element base = a;
    while (e != 0) {
        if (e & 1U) {
            result = mul(result, base);
        }
        base = sqr(base);
        e >>= 1U;
    }
    return result;
}

Field::Element Field::inv(const Element& a) const {
    if (a.is_zero()) {
        throw std::invalid_argument{"Field::inv: zero has no inverse"};
    }
    if (ops_->single_word() && fits_word(a)) {
        return element_from_word(ops_->inv(word_of(a)));
    }
    Element out;
    ops_->inv(a, out);
    return out;
}

Field::Element Field::inv_euclid(const Element& a) const {
    if (a.is_zero()) {
        throw std::invalid_argument{"Field::inv_euclid: zero has no inverse"};
    }
    // Extended Euclid over GF(2)[y]: maintain g1*a == r1 (mod f).
    Poly r0 = modulus_;
    Poly r1 = a;
    Poly g0;               // coefficient of a for r0 (starts at 0)
    Poly g1 = Poly::one(); // coefficient of a for r1
    while (!r1.is_one()) {
        auto [q, r] = Poly::divmod(r0, r1);
        r0 = std::move(r1);
        r1 = std::move(r);
        Poly g = g0 + q * g1;
        g0 = std::move(g1);
        g1 = std::move(g);
        if (r1.is_zero()) {
            throw std::logic_error{
                "Field::inv_euclid: gcd != 1; modulus not irreducible?"};
        }
    }
    return g1 % modulus_;
}

Field::Element Field::inv_fermat(const Element& a) const {
    if (a.is_zero()) {
        throw std::invalid_argument{"Field::inv_fermat: zero has no inverse"};
    }
    if (ops_->single_word() && fits_word(a)) {
        return element_from_word(ops_->inv_fermat(word_of(a)));
    }
    // a^(2^m - 2) = prod of squarings: (2^m - 2) = 111...10 in binary.
    Element result = one();
    Element power = sqr(a);  // a^2
    for (int i = 1; i < m_; ++i) {
        result = mul(result, power);
        power = sqr(power);
    }
    return result;
}

bool Field::trace(const Element& a) const {
    Element acc = a;
    Element sum = a;
    for (int i = 1; i < m_; ++i) {
        acc = sqr(acc);
        sum += acc;
    }
    // The trace lands in GF(2): either 0 or 1.
    if (sum.is_zero()) {
        return false;
    }
    if (sum.is_one()) {
        return true;
    }
    throw std::logic_error{"Field::trace: trace not in GF(2); modulus not irreducible?"};
}

Field::Element Field::half_trace(const Element& a) const {
    if (m_ % 2 == 0) {
        throw std::invalid_argument{"Field::half_trace: requires odd extension degree"};
    }
    Element acc = a;
    Element sum = a;
    for (int i = 1; i <= (m_ - 1) / 2; ++i) {
        acc = sqr(sqr(acc));
        sum += acc;
    }
    return sum;
}

std::optional<Field::Element> Field::solve_quadratic(const Element& c) const {
    if (trace(c)) {
        return std::nullopt;  // z^2 + z = c solvable iff Tr(c) = 0
    }
    const Element z = half_trace(c);
    return z;
}

Field::Element Field::from_bits(std::uint64_t bits) const {
    if (m_ < 64 && m_ >= 0) {
        bits &= (m_ == 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << m_) - 1);
    }
    return element_from_word(bits);  // heap-free: single word stays inline
}

std::uint64_t Field::to_bits(const Element& e) const {
    if (m_ > 64) {
        throw std::invalid_argument{"Field::to_bits: field degree exceeds 64"};
    }
    return e.words().empty() ? 0 : e.words()[0];
}

Field::Element Field::random_element(std::mt19937_64& rng) const {
    std::vector<std::uint64_t> words(static_cast<std::size_t>((m_ + 63) / 64), 0);
    for (auto& w : words) {
        w = rng();
    }
    const int top_bits = m_ % 64;
    if (top_bits != 0) {
        words.back() &= (std::uint64_t{1} << top_bits) - 1;
    }
    return Poly::from_words(words);
}

std::string Field::to_string() const {
    return "GF(2^" + std::to_string(m_) + ") mod " + modulus_.to_string();
}

}  // namespace gfr::field
