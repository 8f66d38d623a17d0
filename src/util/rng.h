// Deterministic random number generation.
//
// Every stochastic component in the library (k-means seeding, synthetic data,
// random initialisation, corruption injection) draws from an explicitly
// seeded Rng so that experiments and tests are exactly reproducible.

#ifndef RHCHME_UTIL_RNG_H_
#define RHCHME_UTIL_RNG_H_

#include <cstdint>
#include <vector>

namespace rhchme {

/// Deterministic pseudo-random generator (SplitMix64 seeded xoshiro256**).
///
/// Not cryptographic; chosen for speed, quality and full reproducibility
/// across platforms (unlike std::normal_distribution, whose output is
/// implementation-defined — we implement our own transforms).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  /// Re-seeds the generator; identical seeds give identical streams.
  void Seed(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal via Box–Muller (deterministic across platforms).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

  /// Samples an index from an unnormalised nonnegative weight vector.
  /// Requires at least one strictly positive weight.
  std::size_t Categorical(const std::vector<double>& weights);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64).
  int Poisson(double mean);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::size_t j = UniformInt(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// k distinct indices drawn uniformly from [0, n). Requires k <= n.
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n,
                                                    std::size_t k);

  /// Child generator with an independent stream, derived deterministically.
  Rng Split();

  /// Complete generator state, for checkpoint/resume. A generator restored
  /// from a saved state continues the exact stream the original would have
  /// produced (including the Box–Muller cached half-normal).
  struct State {
    uint64_t s[4];
    bool have_cached_normal;
    double cached_normal;
  };

  /// Snapshot of the current stream position.
  State SaveState() const;

  /// Rewinds/forwards this generator to a saved stream position.
  void RestoreState(const State& state);

 private:
  uint64_t state_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Deterministically derives the seed of sub-stream `stream` under `seed`.
///
/// SplitMix64-mixes (seed, stream), so nearby pairs — adjacent streams of
/// one seed, or the same stream of adjacent seeds — land on well-separated
/// generators, unlike additive offsets (seed + c·stream), where different
/// (seed, stream) pairs collide on the same derived seed. Schedule-free by
/// construction: the result depends only on the two inputs, which is what
/// lets threaded consumers (e.g. the per-member ensemble tasks) draw
/// reproducible streams no matter which worker runs them first.
uint64_t DeriveStreamSeed(uint64_t seed, uint64_t stream);

/// Convenience: an Rng seeded with DeriveStreamSeed(seed, stream).
Rng StreamRng(uint64_t seed, uint64_t stream);

}  // namespace rhchme

#endif  // RHCHME_UTIL_RNG_H_
