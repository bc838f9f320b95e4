// Winograd minimal-filtering transform matrices F(e x e, r x r).
//
// Generated for arbitrary (e, r) by the transposed Cook-Toom construction:
// a bilinear linear-convolution algorithm over e+r-2 finite evaluation
// points plus the point at infinity is transposed (Tellegen's principle)
// into the correlation form  Y = A^T [ (G g G^T) ⊙ (B^T d B) ] A.
#pragma once

#include <cstdint>
#include <vector>

namespace convbound {

struct WinogradTransform {
  std::int64_t e = 2;  ///< outputs per tile edge
  std::int64_t r = 3;  ///< kernel edge
  std::int64_t a = 4;  ///< e + r - 1, transformed tile edge

  std::vector<double> AT;  ///< e x a output transform
  std::vector<double> G;   ///< a x r kernel transform
  std::vector<double> BT;  ///< a x a input transform

  /// Multiply-adds of one 2-D transform, counting only the nonzero
  /// coefficients (real Winograd kernels exploit exactly this sparsity):
  /// U = G g G^T, V = BT d BT^T and Y = AT Pi AT^T respectively. Kernels
  /// report 2x these as FLOPs.
  std::uint64_t kernel_macs = 0;
  std::uint64_t input_macs = 0;
  std::uint64_t output_macs = 0;

  double at(std::int64_t i, std::int64_t j) const { return AT[i * a + j]; }
  double g(std::int64_t i, std::int64_t j) const { return G[i * r + j]; }
  double bt(std::int64_t i, std::int64_t j) const { return BT[i * a + j]; }
};

/// Builds the transform for F(e x e, r x r). Supports e + r - 1 <= 10.
/// The construction is self-verified at build time against a random 1-D
/// correlation; an Error is thrown if the identity fails (should never
/// happen — it guards against bad evaluation-point choices).
WinogradTransform make_winograd_transform(std::int64_t e, std::int64_t r);

// --- dense helper on row-major double/float matrices ---------------------

/// V = BT * D * BT^T for an a x a tile (the 2-D input transform); likewise
/// usable for U = G*g*G^T and Y = AT*Pi*AT^T with the right dimensions.
/// rows x inner times inner x inner times inner x rows -> rows x rows.
/// Double accumulate, float storage; `scratch` holds rows x inner floats.
/// Branch-free: zero coefficients add exact zeros, so the result equals
/// the sparse product, whose multiply-adds are the transform's
/// kernel_macs / input_macs / output_macs. The shapes of F(2,3) and F(4,3)
/// run with compile-time bounds, other sizes with runtime bounds; every
/// element sums in order p = 0..inner-1 either way.
void wino_sandwich(const double* M, std::int64_t rows, std::int64_t inner,
                   const float* D, float* out, float* scratch);

}  // namespace convbound
