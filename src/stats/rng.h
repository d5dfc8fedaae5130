// Deterministic, seedable random number generation for simulations and
// randomized experiment designs.
//
// We use xoshiro256** (Blackman & Vigna) seeded through SplitMix64. Every
// stochastic component in the library takes an explicit Rng (or a seed), so
// experiments are exactly reproducible — a property the paper's methodology
// depends on (emulated switchbacks and event studies re-analyze the *same*
// realized data under different designs).
#pragma once

#include <cstdint>
#include <vector>

namespace xp::stats {

/// SplitMix64: used to expand a single 64-bit seed into xoshiro state.
/// Public because deterministic unit-hashing (treatment assignment) also
/// uses it as a cheap avalanche function.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stateless 64-bit mix of a value (single SplitMix64 round). Useful for
/// hash-based unit randomization: hash(unit_id ^ experiment_salt).
std::uint64_t mix64(std::uint64_t value) noexcept;

/// The library's one counter-based substream derivation: deterministic
/// seed of job `index` under `base` (golden-ratio offset + mix64). Cell
/// seeds, per-metric estimator streams, and bootstrap rung streams all
/// derive through this, so the "bit-for-bit identical at any thread
/// count" contract has a single formula to keep stable.
std::uint64_t substream_seed(std::uint64_t base,
                             std::uint64_t index) noexcept;

/// xoshiro256** PRNG. Satisfies UniformRandomBitGenerator so it can be used
/// with <random> distributions, but we provide the distributions we need as
/// members to keep results identical across standard libraries.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept { return next(); }
  result_type next() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n) noexcept;
  /// Standard normal via Marsaglia polar method (cached spare).
  double normal() noexcept;
  /// Normal with given mean and standard deviation.
  double normal(double mean, double sd) noexcept;
  /// Exponential with given rate (lambda). Requires rate > 0.
  double exponential(double rate) noexcept;
  /// Bernoulli(p) — true with probability p.
  bool bernoulli(double p) noexcept;
  /// Poisson(mean) via inversion for small means, PTRS for large.
  std::uint64_t poisson(double mean) noexcept;
  /// Log-normal: exp(Normal(mu, sigma)).
  double lognormal(double mu, double sigma) noexcept;

 private:
  std::uint64_t state_[4];
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

/// Block-buffered generator over the same xoshiro256** stream as Rng.
///
/// The tick loop's stochastic call sites (arrival draws, stall-gap draws)
/// consume variates one at a time; BatchedRng generates the underlying
/// 64-bit words a contiguous block at a time and serves draws out of the
/// buffer, so the generator recurrence runs as a tight loop instead of
/// being re-entered per draw between unrelated work.
///
/// Draw-order contract (documented, tested): BatchedRng(seed) produces
/// exactly the same variate sequence as Rng(seed) for any interleaving of
/// the member calls below — buffering changes *when* raw words are
/// generated, never *which* word a draw consumes. Every distribution uses
/// the identical algorithm as the Rng member of the same name (same
/// rejection loops, same polar spare caching), so swapping one for the
/// other is bit-neutral to realized worlds.
class BatchedRng {
 public:
  using result_type = std::uint64_t;

  explicit BatchedRng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL,
                      std::size_t block_words = 256);

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept { return next(); }
  result_type next() noexcept {
    if (pos_ == block_.size()) refill();
    return block_[pos_++];
  }

  /// Uniform double in [0, 1) (same 53-bit ladder as Rng::uniform).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }
  std::uint64_t uniform_int(std::uint64_t n) noexcept;
  double normal() noexcept;
  double normal(double mean, double sd) noexcept {
    return mean + sd * normal();
  }
  double exponential(double rate) noexcept;
  bool bernoulli(double p) noexcept { return uniform() < p; }
  std::uint64_t poisson(double mean) noexcept;
  double lognormal(double mu, double sigma) noexcept;

 private:
  void refill() noexcept;

  Rng rng_;
  std::vector<std::uint64_t> block_;
  std::size_t pos_ = 0;
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace xp::stats
