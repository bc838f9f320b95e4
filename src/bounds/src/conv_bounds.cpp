#include "convbound/bounds/conv_bounds.hpp"

#include <algorithm>
#include <cmath>

#include "convbound/util/check.hpp"
#include "convbound/util/math.hpp"

namespace convbound {

namespace {
double sq(double v) { return v * v; }
}  // namespace

// ---------------------------------------------------------------- direct --

double direct_conv_dag_vertices(const ConvShape& s) {
  s.validate();
  const double per_image =
      (2.0 * static_cast<double>(s.kh * s.kw * s.cin_per_group()) - 1.0) *
      static_cast<double>(s.hout() * s.wout() * s.cout);
  return per_image * static_cast<double>(s.batch);
}

std::vector<SubComputation> direct_conv_steps(const ConvShape& s, double S) {
  const double R = s.reuse();
  std::vector<SubComputation> steps(2);
  // Lemma 4.9: phi_1(h) = psi_1(h) = 2*S*sqrt(R*h).
  steps[0].phi = [R, S](double h) {
    return h <= 0 ? 0.0 : 2.0 * S * std::sqrt(R * h);
  };
  steps[0].psi = steps[0].phi;
  // Lemma 4.10: phi_2(h) = h - 1; step 2 has no output-set forwarding.
  steps[1].phi = [](double h) { return std::max(0.0, h - 1.0); };
  steps[1].psi = [](double) { return 0.0; };
  return steps;
}

double direct_conv_T(const ConvShape& s, double S) {
  const double R = s.reuse();
  return 4.0 * S * std::sqrt(R * S) + S - 1.0;
}

double direct_conv_lower_bound(const ConvShape& s, double S) {
  CB_CHECK(S > 0);
  const double V = direct_conv_dag_vertices(s);
  const double T2S = direct_conv_T(s, 2.0 * S);
  return std::max(0.0, S * (V / T2S - 1.0));
}

double direct_conv_lower_bound_leading(const ConvShape& s, double S) {
  const double R = s.reuse();
  return static_cast<double>(s.kh * s.kw * s.cin_per_group()) *
         static_cast<double>(s.hout() * s.wout() * s.cout) *
         static_cast<double>(s.batch) / (4.0 * std::sqrt(2.0 * R * S));
}

double direct_dataflow_reads(const ConvShape& s, std::int64_t x,
                             std::int64_t y, std::int64_t z) {
  s.validate();
  CB_CHECK(x > 0 && y > 0 && z > 0);
  const double R = s.reuse();
  const double out_blocks =
      static_cast<double>(s.hout() * s.wout() * s.cout) /
      static_cast<double>(x * y * z);
  // Per block: Wker*Hker*Cin weights for z kernels + x'*y'*Cin inputs with
  // x'y' = mu^2*x*y = Wker*Hker*x*y/R (Cin per group for grouped shapes).
  const double per_block =
      static_cast<double>(s.kh * s.kw * s.cin_per_group()) *
      (static_cast<double>(z) + static_cast<double>(x * y) / R);
  return static_cast<double>(s.batch) * out_blocks * per_block;
}

double direct_dataflow_io(const ConvShape& s, double S, int np) {
  CB_CHECK(np > 0);
  const double R = s.reuse();
  const double budget = S / np;  // x*y*z ~= S/N_p
  // Equation (21) with xy = R*z: reads = 2*HWC_out*KKC_in / sqrt(R*budget).
  const double reads =
      2.0 * static_cast<double>(s.hout() * s.wout() * s.cout) *
      static_cast<double>(s.kh * s.kw * s.cin_per_group()) /
      std::sqrt(R * budget);
  const double writes = static_cast<double>(s.hout() * s.wout() * s.cout);
  return static_cast<double>(s.batch) * (reads + writes);
}

double direct_dataflow_reads_min(const ConvShape& s, std::int64_t x_max,
                                 std::int64_t y_max, std::int64_t z_max) {
  // Equation (20) factors as B*HWC_out*KKC_in*(1/(x*y) + 1/(R*z)): both
  // summands shrink as any coordinate grows, so over a box the minimum is
  // attained at (x_max, y_max, z_max).
  return direct_dataflow_reads(s, x_max, y_max, z_max);
}

// -------------------------------------------------------------- winograd --

double winograd_dag_vertices(const ConvShape& s, std::int64_t e) {
  s.validate();
  CB_CHECK_MSG(s.kh == s.kw, "Winograd requires square kernels");
  CB_CHECK_MSG(s.stride == 1, "Winograd requires stride 1");
  const std::int64_t r = s.kh;
  const double a2 = sq(static_cast<double>(e + r - 1));
  const double r2 = static_cast<double>(r * r);
  const double e2 = static_cast<double>(e * e);
  const double cin = static_cast<double>(s.cin);
  // Per F(e,r) instance (one tile, one output channel), following the
  // Lemma 4.14 proof exactly:
  //   step 1a: (2*a2 - 1) * a2 * cin     (input transform trees)
  //   step 1b: (2*r2 - 1) * a2 * cin     (kernel transform trees)
  //   step 2 :  a2 * cin                 (element-wise products)
  //   step 3 : (cin - 1) * a2            (channel summation trees)
  //   step 4 : (2*a2 - 1) * e2           (output transform trees)
  const double per_instance = (2.0 * a2 - 1.0) * a2 * cin +
                              (2.0 * r2 - 1.0) * a2 * cin + a2 * cin +
                              (cin - 1.0) * a2 + (2.0 * a2 - 1.0) * e2;
  const double instances = static_cast<double>(s.hout() * s.wout()) / e2 *
                           static_cast<double>(s.cout) *
                           static_cast<double>(s.batch);
  return per_instance * instances;
}

std::vector<SubComputation> winograd_steps(const ConvShape& s, std::int64_t e,
                                           double S) {
  CB_CHECK(s.kh == s.kw);
  const std::int64_t r = s.kh;
  const double a2 = sq(static_cast<double>(e + r - 1));
  const double er = static_cast<double>(e * r);
  const double e2 = static_cast<double>(e * e);

  std::vector<SubComputation> steps(4);
  // Lemma 4.15.
  steps[0].phi = [a2, er](double h) {
    return h <= 0 ? 0.0 : 6.0 * h * a2 * a2 / er;
  };
  steps[0].psi = [a2, er](double h) {
    return h <= 0 ? 0.0 : 3.0 * h * a2 / er;
  };
  // Lemma 4.16.
  steps[1].phi = [a2, e2, S](double h) {
    if (h <= 0) return 0.0;
    return h * std::sqrt(h) + a2 * S / e2 * std::sqrt(h);
  };
  steps[1].psi = steps[1].phi;
  // Lemma 4.17.
  steps[2].phi = [](double h) { return std::max(0.0, h - 1.0); };
  steps[2].psi = [a2, e2, S](double h) {
    return std::min(h / 2.0, S * a2 / e2);
  };
  // Lemma 4.18.
  steps[3].phi = [a2, e2, S](double h) {
    if (h <= 0) return 0.0;
    return std::min((2.0 * h - 1.0) * e2, (2.0 * a2 - 1.0) * S);
  };
  steps[3].psi = [](double) { return 0.0; };
  return steps;
}

double winograd_T(const ConvShape& s, std::int64_t e, double S) {
  CB_CHECK(s.kh == s.kw);
  const std::int64_t r = s.kh;
  const double a = static_cast<double>(e + r - 1);
  const double a2 = a * a;
  const double er = static_cast<double>(e * r);
  const double e2 = static_cast<double>(e * e);
  // Inequality (18): T(S) <= S + T1(S) + T2(S, 0) + a2*(1/e2 + 2)*S, with
  // T1(k) = 6*k*a2^2/er and T2(k1,k2) = h*sqrt(h) + a2/e2*S*sqrt(h) where
  // h = k2 + 3*k1*a2/er. The paper's (18) silently drops the psi_2 -> phi_3
  // forwarding term (phi_3(h) = h - 1 applied to the step-2 output set,
  // which is as large as T2 again); we add it back so the closed form
  // provably dominates the exact simplex maximisation — this only changes
  // the bound's constant, not its Theta(S^1.5) order.
  const double h = 3.0 * S * a2 / er;
  const double T1 = 6.0 * S * a2 * a2 / er;
  const double T2 = h * std::sqrt(h) + a2 / e2 * S * std::sqrt(h);
  return S + T1 + 2.0 * T2 + a2 * (1.0 / e2 + 2.0) * S;
}

double winograd_lower_bound(const ConvShape& s, std::int64_t e, double S) {
  CB_CHECK(S > 0);
  const double V = winograd_dag_vertices(s, e);
  const double T2S = winograd_T(s, e, 2.0 * S);
  return std::max(0.0, S * (V / T2S - 1.0));
}

double winograd_lower_bound_leading(const ConvShape& s, std::int64_t e,
                                    double S) {
  CB_CHECK(s.kh == s.kw);
  const std::int64_t r = s.kh;
  return static_cast<double>(s.hout() * s.wout() * s.cout) *
         static_cast<double>(s.cin) * static_cast<double>(e + r - 1) *
         static_cast<double>(r) * static_cast<double>(s.batch) /
         (static_cast<double>(e) * std::sqrt(S));
}

double winograd_dataflow_reads(const ConvShape& s, std::int64_t /*e*/,
                               std::int64_t x, std::int64_t y,
                               std::int64_t z) {
  s.validate();
  CB_CHECK(s.kh == s.kw && s.stride == 1);
  CB_CHECK(x > 0 && y > 0 && z > 0);
  const std::int64_t r = s.kh;
  const double out_blocks =
      static_cast<double>(s.hout() * s.wout() * s.cout) /
      static_cast<double>(x * y * z);
  // Equation (22): x*y*Cin inputs + z*r^2*Cin weights per block.
  const double per_block =
      static_cast<double>(s.cin) *
      (static_cast<double>(x * y) + static_cast<double>(z * r * r));
  return static_cast<double>(s.batch) * out_blocks * per_block;
}

double winograd_dataflow_io(const ConvShape& s, std::int64_t e, double S,
                            int np) {
  CB_CHECK(np > 0);
  CB_CHECK(s.kh == s.kw);
  const std::int64_t r = s.kh;
  const double a = static_cast<double>(e + r - 1);
  // 2*(a/e)^2 * xyz ~= S/N_p.
  const double xyz = S / np * sq(static_cast<double>(e)) / (2.0 * a * a);
  const double reads = 2.0 *
                       static_cast<double>(s.hout() * s.wout() * s.cout) *
                       static_cast<double>(s.cin) * static_cast<double>(r) /
                       std::sqrt(xyz);
  const double writes = static_cast<double>(s.hout() * s.wout() * s.cout);
  return static_cast<double>(s.batch) * (reads + writes);
}

double winograd_dataflow_reads_min(const ConvShape& s, std::int64_t e,
                                   std::int64_t x_max, std::int64_t y_max,
                                   std::int64_t z_max) {
  // Equation (22) factors as B*Cin*HWC_out*(1/z + r^2/(x*y)): strictly
  // decreasing in each coordinate, so the box minimum is the upper corner.
  return winograd_dataflow_reads(s, e, x_max, y_max, z_max);
}

// ---------------------------------------------------- optimality condition --

double family_lower_bound(const ConvShape& s, std::int64_t e, double S) {
  if (e > 0)
    return std::max(winograd_lower_bound(s, e, S),
                    winograd_lower_bound_leading(s, e, S));
  return std::max(direct_conv_lower_bound(s, S),
                  direct_conv_lower_bound_leading(s, S));
}

OptimalTile optimal_output_tile(const ConvShape& s, double budget_elems) {
  s.validate();
  CB_CHECK(budget_elems >= 1);
  const double R = std::max(1.0, s.reuse());
  OptimalTile t;
  // x*y = R*z and x*y*z = budget -> z = sqrt(budget/R).
  double z = std::sqrt(budget_elems / R);
  t.z = std::clamp<std::int64_t>(static_cast<std::int64_t>(std::round(z)), 1,
                                 s.cout);
  double xy = budget_elems / static_cast<double>(t.z);
  // Split xy as square as the output allows.
  double side = std::sqrt(xy);
  t.x = std::clamp<std::int64_t>(static_cast<std::int64_t>(std::round(side)),
                                 1, s.hout());
  t.y = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(std::round(xy / static_cast<double>(t.x))), 1,
      s.wout());
  return t;
}

double optimality_residual(const ConvShape& s, std::int64_t x, std::int64_t y,
                           std::int64_t z) {
  CB_CHECK(x > 0 && y > 0 && z > 0);
  const double R = std::max(1.0, s.reuse());
  return std::abs(std::log(static_cast<double>(x * y) /
                           (R * static_cast<double>(z))));
}

}  // namespace convbound
