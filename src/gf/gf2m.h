// Generic GF(2^m) arithmetic for 1 <= m <= 16.
//
// Used by the field-size ablation: the paper fixes GF(2^8), and footnote 1
// of Sec. 3.3 notes the analysis assumes "a sufficiently large Galois
// field"; the ablation quantifies how small fields (down to GF(2)) degrade
// decodability. Table-based exp/log arithmetic over standard primitive
// polynomials; symbols are uint16_t regardless of m for a uniform API.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"

namespace prlc::gf {

/// Primitive polynomial (including the x^m term) used for GF(2^m).
std::uint32_t primitive_polynomial(unsigned m);

/// Field policy template for GF(2^m). Instantiated for small m in tests
/// and ablations; the production path uses Gf256 (see gf256.h).
template <unsigned M>
class Gf2m {
  static_assert(M >= 1 && M <= 16, "Gf2m supports GF(2^1) .. GF(2^16)");

 public:
  using Symbol = std::uint16_t;

  static constexpr std::size_t order() { return std::size_t{1} << M; }
  static const char* name();

  static Symbol add(Symbol a, Symbol b) { return check_sym(a) ^ check_sym(b); }
  static Symbol sub(Symbol a, Symbol b) { return add(a, b); }

  static Symbol mul(Symbol a, Symbol b) {
    check_sym(a);
    check_sym(b);
    if (a == 0 || b == 0) return 0;
    const auto& t = tables();
    return t.exp[t.log[a] + t.log[b]];
  }

  static Symbol inv(Symbol a) {
    PRLC_REQUIRE(a != 0, "inverse of zero in GF(2^m)");
    check_sym(a);
    const auto& t = tables();
    return t.exp[(order() - 1) - t.log[a]];
  }

  static Symbol div(Symbol a, Symbol b) {
    PRLC_REQUIRE(b != 0, "division by zero in GF(2^m)");
    if (a == 0) return 0;
    return mul(a, inv(b));
  }

  /// a^e; 0^0 == 1 by convention.
  static Symbol pow(Symbol a, std::uint32_t e) {
    if (e == 0) return 1;
    if (a == 0) return 0;
    const auto& t = tables();
    const std::uint32_t group = static_cast<std::uint32_t>(order() - 1);
    // 64-bit product: log[a] * (e % group) approaches 2^32 for m = 16.
    return t.exp[(static_cast<std::uint64_t>(t.log[a]) * (e % group)) % group];
  }

  /// y ^= a * x element-wise (generic kernel; Gf256 has a faster one).
  static void axpy(std::span<Symbol> y, Symbol a, std::span<const Symbol> x) {
    PRLC_REQUIRE(y.size() == x.size(), "axpy spans must have equal length");
    if (a == 0) return;
    for (std::size_t i = 0; i < y.size(); ++i) y[i] ^= mul(a, x[i]);
  }

  static void scale(std::span<Symbol> x, Symbol a) {
    for (Symbol& v : x) v = mul(a, v);
  }

  /// ys[r] ^= coeffs[r] * x for every r, all rows x.size() symbols long:
  /// one axpy per row (zero coefficients skip it).
  static void axpy_batch(std::span<Symbol* const> ys, std::span<const Symbol> coeffs,
                         std::span<const Symbol> x) {
    PRLC_REQUIRE(ys.size() == coeffs.size(), "axpy_batch needs one coefficient per row");
    for (std::size_t r = 0; r < ys.size(); ++r) {
      axpy(std::span<Symbol>(ys[r], x.size()), coeffs[r], x);
    }
  }

  static Symbol dot(std::span<const Symbol> a, std::span<const Symbol> b) {
    PRLC_REQUIRE(a.size() == b.size(), "dot spans must have equal length");
    Symbol acc = 0;
    for (std::size_t i = 0; i < a.size(); ++i) acc ^= mul(a[i], b[i]);
    return acc;
  }

 private:
  static Symbol check_sym(Symbol a) {
    PRLC_ASSERT(a < order(), "symbol out of field range");
    return a;
  }

  struct Tables {
    std::vector<Symbol> exp;  // size 2*(order-1), doubled to skip the mod
    std::vector<Symbol> log;  // size order
    Tables();
  };
  static const Tables& tables() {
    static const Tables t;
    return t;
  }
};

/// Convenience aliases used by tests and the ablation bench.
using Gf2 = Gf2m<1>;
using Gf16 = Gf2m<4>;

extern template class Gf2m<1>;
extern template class Gf2m<2>;
extern template class Gf2m<4>;
extern template class Gf2m<8>;
extern template class Gf2m<12>;
extern template class Gf2m<16>;

}  // namespace prlc::gf
