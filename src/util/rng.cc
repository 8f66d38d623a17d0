#include "util/rng.h"

#include <cmath>

#include "util/status.h"

namespace rhchme {
namespace {

uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
  have_cached_normal_ = false;
}

uint64_t Rng::Next() {
  // xoshiro256** by Blackman & Vigna (public domain reference algorithm).
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random mantissa bits -> double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  RHCHME_CHECK(n > 0, "UniformInt(0)");
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - n) % n;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

double Rng::Normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 in (0,1] so log() is finite.
  double u1 = 1.0 - Uniform();
  double u2 = Uniform();
  double radius = std::sqrt(-2.0 * std::log(u1));
  double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  have_cached_normal_ = true;
  return radius * std::cos(angle);
}

std::size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    RHCHME_CHECK(w >= 0.0, "Categorical weights must be nonnegative");
    total += w;
  }
  RHCHME_CHECK(total > 0.0, "Categorical weights must not all be zero");
  double r = Uniform() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;  // r landed on total due to rounding.
}

int Rng::Poisson(double mean) {
  RHCHME_CHECK(mean >= 0.0, "Poisson mean must be nonnegative");
  if (mean == 0.0) return 0;
  if (mean > 64.0) {
    double v = Normal(mean, std::sqrt(mean));
    return v < 0.0 ? 0 : static_cast<int>(v + 0.5);
  }
  // Knuth's product-of-uniforms method.
  const double limit = std::exp(-mean);
  double product = Uniform();
  int count = 0;
  while (product > limit) {
    ++count;
    product *= Uniform();
  }
  return count;
}

std::vector<std::size_t> Rng::SampleWithoutReplacement(std::size_t n,
                                                       std::size_t k) {
  RHCHME_CHECK(k <= n, "sample size exceeds population");
  // Floyd's algorithm: O(k) expected insertions.
  std::vector<std::size_t> chosen;
  chosen.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    std::size_t t = UniformInt(j + 1);
    bool seen = false;
    for (std::size_t c : chosen) {
      if (c == t) {
        seen = true;
        break;
      }
    }
    chosen.push_back(seen ? j : t);
  }
  return chosen;
}

Rng Rng::Split() { return Rng(Next() ^ 0xd1b54a32d192ed03ULL); }

Rng::State Rng::SaveState() const {
  State st;
  for (int i = 0; i < 4; ++i) st.s[i] = state_[i];
  st.have_cached_normal = have_cached_normal_;
  st.cached_normal = cached_normal_;
  return st;
}

void Rng::RestoreState(const State& state) {
  for (int i = 0; i < 4; ++i) state_[i] = state.s[i];
  have_cached_normal_ = state.have_cached_normal;
  cached_normal_ = state.cached_normal;
}

uint64_t DeriveStreamSeed(uint64_t seed, uint64_t stream) {
  // Fold the stream id into the SplitMix64 walk position: stream k reads
  // the (k+1)-th output of the seed's expansion sequence, computed in
  // O(1) because SplitMix64's state advance is a fixed increment.
  uint64_t x = seed + (stream + 1) * 0x9e3779b97f4a7c15ULL;
  // Inline SplitMix64 finaliser on the advanced state.
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng StreamRng(uint64_t seed, uint64_t stream) {
  return Rng(DeriveStreamSeed(seed, stream));
}

}  // namespace rhchme
