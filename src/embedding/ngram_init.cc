#include "embedding/ngram_init.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "common/trace.h"
#include "embedding/random_init.h"

namespace grimp {

namespace {
// Deterministic pseudo-random unit-scale component for (bucket, dim d).
float BucketComponent(uint64_t bucket, int d, uint64_t seed) {
  uint64_t h = bucket * 0x9e3779b97f4a7c15ULL + seed;
  h ^= static_cast<uint64_t>(d) * 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  // Map to roughly N(0,1) via sum of two uniforms minus 1 (triangular, good
  // enough for feature hashing).
  const double u1 = static_cast<double>(h >> 32) / 4294967296.0;
  const double u2 = static_cast<double>(h & 0xffffffffULL) / 4294967296.0;
  return static_cast<float>(u1 + u2 - 1.0) * 2.0f;
}
}  // namespace

std::vector<float> NgramFeatureInit::EmbedString(const std::string& value,
                                                 int dim,
                                                 uint64_t seed) const {
  std::vector<float> vec(static_cast<size_t>(dim), 0.0f);
  std::string padded;
  EmbedInto(value, dim, seed, vec.data(), &padded);
  return vec;
}

void NgramFeatureInit::EmbedInto(const std::string& value, int dim,
                                 uint64_t seed, float* out,
                                 std::string* padded_scratch) const {
  for (int d = 0; d < dim; ++d) out[d] = 0.0f;
  if (value.empty()) return;
  std::string& padded = *padded_scratch;
  padded.clear();
  padded += '<';
  padded += value;
  padded += '>';
  int num_ngrams = 0;
  for (int n = min_n_; n <= max_n_; ++n) {
    if (static_cast<size_t>(n) > padded.size()) break;
    for (size_t i = 0; i + static_cast<size_t>(n) <= padded.size(); ++i) {
      const uint64_t h =
          Fnv1a(std::string_view(padded).substr(i, static_cast<size_t>(n)),
                seed) %
          static_cast<uint64_t>(num_buckets_);
      for (int d = 0; d < dim; ++d) {
        out[d] += BucketComponent(h, d, seed);
      }
      ++num_ngrams;
    }
  }
  if (num_ngrams == 0) {
    // Very short value: hash the whole padded token once.
    const uint64_t h =
        Fnv1a(padded, seed) % static_cast<uint64_t>(num_buckets_);
    for (int d = 0; d < dim; ++d) {
      out[d] = BucketComponent(h, d, seed);
    }
    num_ngrams = 1;
  }
  double norm_sq = 0.0;
  for (int d = 0; d < dim; ++d) {
    norm_sq += static_cast<double>(out[d]) * out[d];
  }
  if (norm_sq > 0.0) {
    const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
    for (int d = 0; d < dim; ++d) out[d] *= inv;
  }
}

void NgramFeatureInit::AverageRidRow(const Table& table, const TableGraph& tg,
                                     int64_t row, Tensor* features) {
  const int64_t dim = features->cols();
  float* out = &features->at(tg.rid_nodes[static_cast<size_t>(row)], 0);
  std::fill(out, out + dim, 0.0f);
  int present = 0;
  for (int c = 0; c < table.num_cols(); ++c) {
    const int32_t code = table.column(c).CodeAt(row);
    if (code < 0) continue;
    const int64_t cell = tg.CellNode(c, code);
    if (cell < 0) continue;
    const float* cell_vec = &features->at(cell, 0);
    for (int64_t d = 0; d < dim; ++d) out[d] += cell_vec[d];
    ++present;
  }
  if (present > 0) {
    const float inv = 1.0f / static_cast<float>(present);
    for (int64_t d = 0; d < dim; ++d) out[d] *= inv;
  }
}

Result<PretrainedFeatures> NgramFeatureInit::Init(const Table& table,
                                                  const TableGraph& tg,
                                                  int dim,
                                                  uint64_t seed) const {
  if (dim <= 0) return Status::InvalidArgument("dim must be positive");
  GRIMP_TRACE_SPAN("feature_init");
  PretrainedFeatures out;
  out.node_features = Tensor::Zeros(tg.graph.num_nodes(), dim);
  // Cell nodes: embed the value string straight into the node's feature
  // row (one shared padded-string scratch; no per-value heap traffic).
  std::string padded_scratch;
  for (int c = 0; c < table.num_cols(); ++c) {
    const Dictionary& dict = table.column(c).dict();
    for (int32_t code = 0; code < dict.size(); ++code) {
      const int64_t node = tg.CellNode(c, code);
      if (node < 0) continue;
      EmbedInto(dict.ValueOf(code), dim, seed,
                &out.node_features.at(node, 0), &padded_scratch);
    }
  }
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    AverageRidRow(table, tg, r, &out.node_features);
  }
  out.column_features = Tensor::Zeros(table.num_cols(), dim);
  FillColumnFeaturesFromCells(table, tg, out.node_features,
                              &out.column_features);
  return out;
}

}  // namespace grimp
