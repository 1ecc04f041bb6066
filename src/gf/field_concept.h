// Compile-time interface for finite fields of characteristic 2.
//
// All coding/linear-algebra code in this library is generic over a field
// policy type so that the field-size ablation (GF(2), GF(16), GF(256)) can
// exercise identical code paths. A field policy exposes static arithmetic
// on an unsigned Symbol type; addition is XOR in every GF(2^m).
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>

namespace prlc::gf {

/// Field policy concept: static arithmetic over an unsigned symbol type,
/// plus the bulk span operations every decoder hot path reduces to. The
/// span operations are part of the concept (not derived from mul) so a
/// policy can back them with vectorized kernels — see gf256_kernels.h.
/// axpy_batch (ys[r] ^= coeffs[r] * x for every r) is the decoders'
/// elimination step: Gf256 tiles it through the cache, Gf2m runs it one
/// row at a time.
template <typename F>
concept FieldPolicy = requires(typename F::Symbol a, typename F::Symbol b,
                               std::span<typename F::Symbol> y,
                               std::span<const typename F::Symbol> x,
                               std::span<typename F::Symbol* const> ys) {
  requires std::unsigned_integral<typename F::Symbol>;
  { F::add(a, b) } -> std::same_as<typename F::Symbol>;
  { F::sub(a, b) } -> std::same_as<typename F::Symbol>;
  { F::mul(a, b) } -> std::same_as<typename F::Symbol>;
  { F::div(a, b) } -> std::same_as<typename F::Symbol>;
  { F::inv(a) } -> std::same_as<typename F::Symbol>;
  { F::order() } -> std::convertible_to<std::size_t>;
  { F::name() } -> std::convertible_to<const char*>;
  { F::axpy(y, a, x) } -> std::same_as<void>;
  { F::scale(y, a) } -> std::same_as<void>;
  { F::dot(x, x) } -> std::same_as<typename F::Symbol>;
  { F::axpy_batch(ys, x, x) } -> std::same_as<void>;
};

}  // namespace prlc::gf
