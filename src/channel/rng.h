#pragma once
// Deterministic pseudo-random number generation.
//
// Every stochastic element of the simulation (packet payloads, erasure
// draws, placement sampling) draws from an explicitly passed Rng so that
// experiments are reproducible from a single seed. The generator is
// xoshiro256** seeded through splitmix64, which has excellent statistical
// quality and lets us fork independent streams cheaply.
//
// Payload bytes are one full draw each (next_byte() keeps the low 8 bits
// of next_u64()); the golden digests pin that stream. fill() emits the
// same sequence for a whole buffer with the state held in registers —
// byte stores through a uint8_t pointer may alias the state, so a
// next_byte() loop spills and reloads it on every draw.
//
// NOTE: this is a *simulation* RNG. A production deployment must source
// x-packet payloads from a cryptographically secure generator; the
// protocol's secrecy argument assumes the payloads are uniform and
// unpredictable.

#include <cstdint>
#include <span>

namespace thinair::channel {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, bound) without modulo bias. Precondition: bound > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli draw with success probability p (clamped to [0, 1]).
  bool bernoulli(double p);

  /// Uniform byte.
  std::uint8_t next_byte() { return static_cast<std::uint8_t>(next_u64()); }

  /// Overwrite `out` with exactly the bytes a next_byte() loop would draw,
  /// advancing the stream by out.size() draws.
  void fill(std::span<std::uint8_t> out);

  /// A statistically independent generator derived from this one's stream;
  /// used to give each experiment its own stream.
  Rng fork();

 private:
  std::uint64_t s_[4];
};

}  // namespace thinair::channel
