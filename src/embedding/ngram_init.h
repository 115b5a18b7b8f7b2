#ifndef GRIMP_EMBEDDING_NGRAM_INIT_H_
#define GRIMP_EMBEDDING_NGRAM_INIT_H_

#include <string>
#include <vector>

#include "embedding/feature_init.h"

namespace grimp {

// FastText substitute (see DESIGN.md Substitutions): every string value is
// embedded as the L2-normalized mean of hashed character n-gram vectors
// (n in [min_n, max_n], word boundary markers '<'/'>'), where each n-gram
// indexes a deterministic bucket table seeded from the hash itself. This
// preserves the property GRIMP relies on: lexically similar values receive
// nearby vectors, and typos move a vector only slightly (§4.2 noise
// experiment).
class NgramFeatureInit : public FeatureInitializer {
 public:
  explicit NgramFeatureInit(int min_n = 3, int max_n = 5,
                            int num_buckets = 1 << 15)
      : min_n_(min_n), max_n_(max_n), num_buckets_(num_buckets) {}

  std::string name() const override { return "ngram"; }
  Result<PretrainedFeatures> Init(const Table& table, const TableGraph& tg,
                                  int dim, uint64_t seed) const override;

  // Embeds a single string (exposed for tests and for DataWig's
  // featurizer). Output has `dim` components, L2-normalized (zero vector
  // for the empty string).
  std::vector<float> EmbedString(const std::string& value, int dim,
                                 uint64_t seed) const;

  // Allocation-free core of EmbedString: writes the `dim` components to
  // `out` and reuses `*padded` for the boundary-marked copy of `value`, so
  // Init embeds a whole table without per-value heap traffic (the serving
  // path re-featurizes every request).
  void EmbedInto(const std::string& value, int dim, uint64_t seed,
                 float* out, std::string* padded) const;

  // Writes the RID vector of `row` into its row of *features: the mean of
  // the row's present cell vectors, summed in column order. Init and the
  // live graph's feature refresh share it, so a refreshed RID vector is
  // bit-identical to a rebuilt one.
  static void AverageRidRow(const Table& table, const TableGraph& tg,
                            int64_t row, Tensor* features);

 private:
  int min_n_;
  int max_n_;
  int num_buckets_;
};

}  // namespace grimp

#endif  // GRIMP_EMBEDDING_NGRAM_INIT_H_
