#include "stats/rng.h"

#include <cmath>

namespace xp::stats {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t value) noexcept {
  std::uint64_t s = value;
  return splitmix64(s);
}

std::uint64_t substream_seed(std::uint64_t base,
                             std::uint64_t index) noexcept {
  return mix64(base ^ (0x9e3779b97f4a7c15ULL + index));
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 random bits into [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) noexcept {
  // Lemire's nearly-divisionless bounded integers.
  __uint128_t m = static_cast<__uint128_t>(next()) * n;
  auto low = static_cast<std::uint64_t>(m);
  if (low < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (low < threshold) {
      m = static_cast<__uint128_t>(next()) * n;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u = 0.0, v = 0.0, s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_ = true;
  return u * factor;
}

double Rng::normal(double mean, double sd) noexcept {
  return mean + sd * normal();
}

double Rng::exponential(double rate) noexcept {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

std::uint64_t Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    // Knuth inversion.
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    double product = uniform();
    while (product > limit) {
      ++k;
      product *= uniform();
    }
    return k;
  }
  // Normal approximation with continuity correction is adequate for the
  // arrival-count magnitudes used in the demand models (mean >= 30).
  const double draw = normal(mean, std::sqrt(mean));
  return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

BatchedRng::BatchedRng(std::uint64_t seed, std::size_t block_words)
    : rng_(seed), block_(block_words == 0 ? 1 : block_words) {
  pos_ = block_.size();  // empty: first draw triggers a refill
}

void BatchedRng::refill() noexcept {
  // The recurrence runs back to back over the whole block — the only
  // place raw words are generated.
  for (std::uint64_t& word : block_) word = rng_.next();
  pos_ = 0;
}

std::uint64_t BatchedRng::uniform_int(std::uint64_t n) noexcept {
  // Lemire's nearly-divisionless bounded integers (same as Rng).
  __uint128_t m = static_cast<__uint128_t>(next()) * n;
  auto low = static_cast<std::uint64_t>(m);
  if (low < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (low < threshold) {
      m = static_cast<__uint128_t>(next()) * n;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double BatchedRng::normal() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u = 0.0, v = 0.0, s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_ = true;
  return u * factor;
}

double BatchedRng::exponential(double rate) noexcept {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

std::uint64_t BatchedRng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    double product = uniform();
    while (product > limit) {
      ++k;
      product *= uniform();
    }
    return k;
  }
  const double draw = normal(mean, std::sqrt(mean));
  return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

double BatchedRng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

}  // namespace xp::stats
