#include "convbound/tune/measure.hpp"

#include "convbound/conv/reference.hpp"

namespace convbound {

std::shared_ptr<const MeasureInputs> MeasureInputs::create(
    const SearchDomain& domain, std::uint64_t seed) {
  const ConvShape& s = domain.shape();
  auto mi = std::make_shared<MeasureInputs>();
  mi->weights = Tensor4<float>(s.cout, s.cin_per_group(), s.kh, s.kw);
  Rng rng(seed);
  Tensor4<float> base(s.batch, s.cin, s.hin, s.win);
  base.fill_random(rng);
  mi->weights.fill_random(rng);
  mi->inputs.reserve(kAllLayouts.size());
  for (Layout l : kAllLayouts) mi->inputs.push_back(base.to_layout(l));
  return mi;
}

Measurement measure_config(SimGpu& gpu, const SearchDomain& domain,
                           const MeasureInputs& inputs, Tensor4<float>& out,
                           const ConvConfig& cfg) {
  Measurement m;
  const ConvShape& s = domain.shape();
  const Tensor4<float>& input =
      inputs.inputs[static_cast<std::size_t>(cfg.layout)];
  try {
    if (domain.options().winograd) {
      m.stats = winograd_fused_sim(gpu, input, inputs.weights, s,
                                   domain.options().e, cfg, out);
    } else {
      m.stats = direct_tiled_sim(gpu, input, inputs.weights, s, cfg, out);
    }
    m.seconds = m.stats.sim_time;
    m.valid = true;
  } catch (const Error&) {
    // Configuration does not physically fit (S_b overflow, thread limit...).
    m.valid = false;
  }
  return m;
}

Measurement Measurer::measure(const ConvConfig& cfg) {
  return measure_batch({cfg}).front();
}

}  // namespace convbound
