#ifndef GRIMP_COMMON_RNG_H_
#define GRIMP_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace grimp {

// The one stateless seed mixer: the splitmix64 finalizer applied to
// x + golden ratio. Also expands Rng seeds into xoshiro state.
uint64_t SplitMix64(uint64_t x);

// Seed of one derived stream, a pure function of its coordinates (never
// of thread count, scheduling or visit order): the sampler keys draws on
// (nonce ^ layer, type, node), the trainer on (seed, epoch, batch) and
// streaming inference on (seed, task, nonce).
inline uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b) {
  return SplitMix64(SplitMix64(SplitMix64(seed) ^ a) ^ b);
}

// Deterministic, fast PRNG (xoshiro256**). Every stochastic component in
// the library takes an explicit Rng (or a seed) so that experiments are
// reproducible bit-for-bit.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Raw 64 random bits.
  uint64_t Next();

  // Uniform in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n);

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform float in [lo, hi).
  float UniformReal(float lo, float hi);

  // Standard normal via Box-Muller.
  double NextGaussian();

  // true with probability p.
  bool Bernoulli(double p);

  // Samples an index from an (unnormalized, non-negative) weight vector.
  // Returns weights.size() - 1 on degenerate input (all zero).
  size_t Categorical(const std::vector<double>& weights);

  // Fisher-Yates shuffle of [first, first + n).
  template <typename T>
  void Shuffle(T* first, size_t n) {
    for (size_t i = n; i > 1; --i) {
      size_t j = Uniform(i);
      std::swap(first[i - 1], first[j]);
    }
  }

  template <typename T>
  void Shuffle(std::vector<T>* v) {
    Shuffle(v->data(), v->size());
  }

  // Derives an independent child stream (for per-component seeding).
  Rng Fork();

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace grimp

#endif  // GRIMP_COMMON_RNG_H_
