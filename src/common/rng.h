#ifndef PAFEAT_COMMON_RNG_H_
#define PAFEAT_COMMON_RNG_H_

#include <array>
#include <cstdint>
#include <vector>

namespace pafeat {

// Deterministic pseudo-random number generator (xoshiro256**) used across the
// library so that every experiment is reproducible from a single seed.
//
// The generator is deliberately not std::mt19937: xoshiro is faster, the
// stream is identical across platforms, and seeding via SplitMix64 guarantees
// well-mixed state even for small consecutive seeds.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Raw 64 random bits.
  uint64_t Next();

  // Uniform double in [0, 1).
  double Uniform();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [0, n). Requires n > 0.
  int UniformInt(int n);

  // Standard normal variate (Box-Muller, cached pair).
  double Normal();

  // Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  // True with probability p.
  bool Bernoulli(double p);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (int i = static_cast<int>(values->size()) - 1; i > 0; --i) {
      int j = UniformInt(i + 1);
      std::swap((*values)[i], (*values)[j]);
    }
  }

  // k distinct integers sampled uniformly from [0, n) in random order.
  std::vector<int> SampleWithoutReplacement(int n, int k);

  // Index sampled from an (unnormalized, non-negative) weight vector.
  // Requires at least one strictly positive weight.
  int SampleDiscrete(const std::vector<double>& weights);

  // Forks an independent generator whose stream is a deterministic function
  // of this generator's current state and `stream_id`.
  Rng Fork(uint64_t stream_id);

  // Forks on a two-component path, e.g. (iteration, stream): the components
  // are hash-combined through SplitMix64 before forking, so neighbouring
  // paths land on well-separated streams and (a, b) never collides with
  // (b, a) the way a plain XOR of the keys would.
  Rng Fork(uint64_t path_hi, uint64_t path_lo);

  // The complete generator state as six words — the xoshiro state, the
  // cached-normal flag and the bit-cast cached normal — so a warm-resumed
  // run (checkpoint v3) continues the stream exactly where the saved run
  // stopped.
  std::array<uint64_t, 6> SaveState() const;
  void LoadState(const std::array<uint64_t, 6>& state);

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace pafeat

#endif  // PAFEAT_COMMON_RNG_H_
