#ifndef GRIMP_GNN_HETERO_SAGE_H_
#define GRIMP_GNN_HETERO_SAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/hetero_graph.h"
#include "graph/sampler.h"
#include "tensor/nn.h"
#include "tensor/tape.h"

namespace grimp {

// Caller-owned reusable mask storage for HeteroSageLayer forwards: the
// per-type participation masks and the 1/#incident-types normalizer, which
// every forward refills from its graph's adjacency. Whoever runs forwards
// owns one (the trainer next to its tape, serving one per worker thread,
// a streaming window one per call), so concurrent forwards over one layer
// never share a buffer. Once the previous step's tape is Reset its RowScale
// closures drop their references and the buffers are refilled in place
// instead of reallocated.
struct SageScratch {
  std::vector<std::shared_ptr<std::vector<float>>> masks;
  std::shared_ptr<std::vector<float>> inv_counts;
  std::vector<int> counts;
  std::vector<const CsrAdjacency*> adjacency;
};

// One SageScratch per layer of a HeteroGnn (sized lazily by Forward and
// ForwardBlocks).
struct GnnScratch {
  std::vector<SageScratch> layers;
};

// One edge type's GraphSAGE-mean submodule (paper §3.5, Eq. 1):
//   out_v = W_r * [ h_v || mean_{u in N_r(v)} h_u ]
// The concatenated self term realizes the self-loop the paper adds to the
// graph, following the GraphSAGE formulation.
class SageSubmodule {
 public:
  SageSubmodule() = default;
  SageSubmodule(std::string name, int64_t in_dim, int64_t out_dim, Rng* rng);

  Tape::VarId Forward(Tape* tape, Tape::VarId h,
                      const CsrAdjacency& adj) const;

  // Generalized (bipartite) form used by sampled blocks: the self term
  // `h_dst` (num_dst rows) and the neighbor source rows `h_src` (num_src
  // rows) are separate vars; `adj` has num_dst segments indexing h_src
  // rows. Forward(h, adj) is exactly ForwardBlock(h, h, adj).
  Tape::VarId ForwardBlock(Tape* tape, Tape::VarId h_dst, Tape::VarId h_src,
                           const CsrAdjacency& adj) const;

  void CollectParameters(std::vector<Parameter*>* out);
  int64_t NumParameters() const { return linear_.NumParameters(); }

 private:
  Linear linear_;  // (2 * in_dim) -> out_dim
};

// One heterogeneous layer: N submodules (one per attribute / edge type),
// combined by gamma = masked mean over the edge types incident to each
// node. Nodes untouched by a type contribute nothing to (and receive
// nothing from) that type's submodule, matching "each sub-module performs
// its convolution exclusively on nodes connected by edges of the type it
// pertains to".
//
// The layer owns only weights; the graph and the mask scratch are passed to
// each forward. This keeps GRIMP inductive (paper §3.4): weights trained on
// one table's graph can run message passing over another table with the
// same schema, from any number of threads at once.
class HeteroSageLayer {
 public:
  HeteroSageLayer() = default;
  HeteroSageLayer(std::string name, int num_edge_types, int64_t in_dim,
                  int64_t out_dim, Rng* rng);

  // `graph.num_edge_types()` must equal the layer's submodule count.
  // `scratch` (optional) supplies caller-owned mask storage; without one
  // the masks live in a call-local scratch. Results are bit-identical
  // either way.
  Tape::VarId Forward(Tape* tape, Tape::VarId h, const HeteroGraph& graph,
                      SageScratch* scratch = nullptr) const;

  // Sampled-minibatch forward: consumes the block's num_src input rows
  // (`h`) and produces num_dst output rows. The self term is the dst
  // prefix of `h` (see GraphBlock); masks and the 1/#incident-types
  // normalizer come from the block's degrees, which agree with the full
  // graph's participation pattern because the sampler keeps at least one
  // neighbor wherever the full graph has one. `scratch` as in Forward.
  Tape::VarId ForwardBlock(Tape* tape, Tape::VarId h, const GraphBlock& block,
                           SageScratch* scratch = nullptr) const;

  void CollectParameters(std::vector<Parameter*>* out);
  int64_t NumParameters() const;

 private:
  // Shared core of Forward/ForwardBlock: per-type convolution + masked
  // mean over `num_dst` output rows, with one CSR per edge type (full
  // graph or block, listed in scratch->adjacency). The masks are refilled
  // into *scratch on every call.
  Tape::VarId ForwardImpl(Tape* tape, Tape::VarId h_dst, Tape::VarId h_src,
                          int64_t num_dst, SageScratch* scratch) const;

  std::vector<SageSubmodule> submodules_;
};

// The paper's default GNN: a 2-layer heterogeneous GraphSAGE stack with
// ReLU after the first layer and a linear final layer.
class HeteroGnn {
 public:
  HeteroGnn() = default;
  HeteroGnn(int num_edge_types, int64_t in_dim, int64_t hidden_dim,
            int64_t out_dim, int num_layers, Rng* rng);

  // `features` is a Constant/Leaf var of shape num_nodes x in_dim.
  // `scratch` (optional) forwards per-layer mask scratch to every layer
  // (see SageScratch); sized lazily to num_layers().
  Tape::VarId Forward(Tape* tape, Tape::VarId features,
                      const HeteroGraph& graph,
                      GnnScratch* scratch = nullptr) const;

  // Sampled-minibatch forward over a block sequence (blocks.size() must
  // equal num_layers()): `features` holds the rows of
  // subgraph.input_nodes; the result has one row per output node (seed).
  // `scratch` as in Forward.
  Tape::VarId ForwardBlocks(Tape* tape, Tape::VarId features,
                            const SampledSubgraph& subgraph,
                            GnnScratch* scratch = nullptr) const;

  void CollectParameters(std::vector<Parameter*>* out);
  int64_t NumParameters() const;
  int num_layers() const { return static_cast<int>(layers_.size()); }

 private:
  std::vector<HeteroSageLayer> layers_;
};

}  // namespace grimp

#endif  // GRIMP_GNN_HETERO_SAGE_H_
