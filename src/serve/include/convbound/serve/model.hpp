// A deployable model: a chained conv pipeline with fixed weights.
//
// The zoo inventories (src/nets/models.hpp) list conv layers with
// independent geometries — real networks glue them together with pooling /
// activation layers that the paper (and this library) does not accelerate.
// Serving needs an end-to-end *function* of the request input, so a
// ServedModel chains the conv layers with a deterministic host-side adapter
// (nearest-neighbour resize + channel modulo + softsign) standing in for
// that glue. The adapter is part of the served function — the single-thread
// reference pipeline applies the identical chain — but, like the glue
// layers in run_model, it is host work and not counted as accelerator I/O.
//
// Because every conv algorithm processes batch lanes independently, the
// served output of a request is the same whichever micro-batch it rides in;
// that is what makes dynamic batching transparent to clients.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "convbound/nets/models.hpp"
#include "convbound/serve/request.hpp"
#include "convbound/tensor/tensor.hpp"

namespace convbound {

struct ServedModelOptions {
  /// Keep only the first N conv layers (0 = all). Smoke/CI scale.
  std::size_t max_layers = 0;
  /// Cap channel counts (0 = uncapped). Rounded to a multiple of the
  /// layer's group count; depthwise layers scale groups along.
  std::int64_t channel_cap = 0;
  /// Cap input H/W (0 = uncapped); kernel/stride/pad are kept.
  std::int64_t spatial_cap = 0;
  /// Seed for the model's fixed weights.
  std::uint64_t weight_seed = 42;
};

struct ServedModel {
  std::string name;
  /// Batch-1 layer geometries; the session plans them at its bucket size.
  std::vector<ConvLayer> layers;
  /// Fixed per-layer weights, [cout, cin/groups, kh, kw]. Generated once at
  /// construction, shared by every batch bucket and session replica.
  std::vector<Tensor4<float>> weights;

  std::int64_t input_c() const { return layers.front().shape.cin; }
  std::int64_t input_h() const { return layers.front().shape.hin; }
  std::int64_t input_w() const { return layers.front().shape.win; }
};

/// Builds a servable pipeline from a layer inventory, applying the scaling
/// caps and generating the fixed weights.
ServedModel make_served_model(const std::string& name,
                              std::vector<ConvLayer> layers,
                              const ServedModelOptions& opts = {});

/// `shape` at a different batch size (the micro-batch bucket).
ConvShape shape_at_batch(ConvShape shape, std::int64_t batch);

/// The inter-layer glue: out(n,c,h,w) = softsign(prev(n, c % C', map(h),
/// map(w))) with nearest-neighbour spatial mapping. Bounded output (softsign
/// is 1-Lipschitz into (-1,1)), so chained pipelines stay numerically tame
/// and algorithm-level FP differences do not amplify layer over layer.
/// `out` supplies the target geometry (any batch; lanes are independent).
void adapt_activation(const Tensor4<float>& prev, Tensor4<float>& out);

/// Deterministic single-image request input, [1, cin, hin, win].
Tensor4<float> make_request_input(const ServedModel& model,
                                  std::uint64_t seed);

/// Indexes a model list by name, rejecting empty lists and duplicate
/// names (the cluster front door's model table).
std::map<std::string, ServedModel> index_models(
    std::vector<ServedModel> models);

/// Looks up `request.model` in `models` and CB_CHECKs the input geometry
/// ([1, cin, hin, win] NCHW). The cluster front door calls it on every
/// submit, so a malformed request throws at the call site.
const ServedModel& validate_request(
    const std::map<std::string, ServedModel>& models,
    const InferRequest& request);

/// Single-threaded oracle: runs the pipeline on `input` (any batch size)
/// with conv2d_ref for every layer and the same adapter chain the server
/// executes. Serving responses must allclose() this per lane.
Tensor4<float> reference_run(const ServedModel& model,
                             const Tensor4<float>& input);

}  // namespace convbound
