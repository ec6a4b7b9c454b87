#ifndef PAFEAT_TESTS_GOLDEN_TRAINING_DIGESTS_H_
#define PAFEAT_TESTS_GOLDEN_TRAINING_DIGESTS_H_

// Frozen training digests for TrainingGoldenTest (its TrainingDigest,
// RunBoundedTraining and RunPopArtTraining define the recipes; Fnv1a64
// below is the hash). One
// value per SIMD level: generic, and avx2 for every x86-64 host with AVX2
// and FMA, the widest level the library dispatches. The values hold for
// the portable build flags (Release -O2 with the per-TU kernel flags of
// src/CMakeLists.txt, Debug, and the sanitizer and checked builds); a build
// that retunes the whole library for one CPU is outside the contract.
//
// Provenance: the Feat and PaFeat values were recorded at commit 8bacbd2,
// where the blocking reference loop (Feat::RunEpisode, selected by
// FeatConfig::batched_inference = false) gave the same digests at 1 and 8
// threads as the batched collector at {1, 8} threads x {1, 4} shards. The
// bounded value was recorded at commit 62028bc, where the replay buffer sat
// on a sharded trajectory store and gave the same digest at 1 and 4 storage
// shards at {1, 8} threads x {1, 4} collector shards. The PopArt value was
// recorded at commit 2553d61, at 1, 3 and 8 threads, before the PopArt EMA
// rate and the recent-returns window became constants. The avx2 values
// hold on every x86-64 host with AVX2 and FMA; none changed when the wider
// level that shared them was deleted. A deliberate re-record copies the
// "computed" value the failing test prints.

#include <cstddef>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>

#include "data/feature_mask.h"
#include "rl/types.h"
#include "tensor/kernels.h"

namespace pafeat {
namespace golden {

struct TrainingGolden {
  uint64_t generic;
  uint64_t avx2;  // x86-64 hosts with AVX2 and FMA
};

// Plain FEAT: SmallDataset, DefaultFeatOptions(50, 23), 4 envs, mfr 0.5.
inline constexpr TrainingGolden kFeatTraining = {0x95f7d7a7113166f9ULL,
                                                 0x1fff4c47b6a0f1cfULL};
// Full PaFeat (ITS + ITE): SmallDataset, DefaultFeatOptions(60, 23), 8 envs.
inline constexpr TrainingGolden kPaFeatTraining = {0x134321b5449a42d3ULL,
                                                   0x531128c431ff2a0fULL};
// Plain FEAT under binding memory budgets: MemoryDataset, 4096 B reward
// cache per task, replay_budget_bytes = 8192, DefaultFeatOptions(50, 23),
// 8 envs, 8 iterations.
inline constexpr TrainingGolden kBoundedFeatTraining = {0xd7bb29645801e272ULL,
                                                        0x33836e619aec4d5dULL};
// PopArt FEAT (use_popart and extra_rescale_layer, as PopArtSelector sets
// them): MemoryDataset, DefaultFeatOptions(50, 23), 8 envs, 14 iterations;
// each iteration's mean loss, the online parameters and the training-state
// blob.
inline constexpr TrainingGolden kPopArtFeatTraining = {0xa6386e430e5d48daULL,
                                                       0x26e61eafb475cfbfULL};

// FNV-1a 64 over raw bytes: the goldens' digest.
class Fnv1a64 {
 public:
  void Bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const uint8_t*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void Scalar(T value) {
    Bytes(&value, sizeof(value));
  }
  void Mask(const FeatureMask& mask) { Bytes(mask.data(), mask.size()); }
  void State(const EnvState& state) {
    Scalar<int32_t>(state.position);
    Mask(state.mask);
  }
  // A stored trajectory: its return, then per step the state, next state
  // (both rebuilt by Trajectory::StateBefore), action, reward bits and done
  // flag.
  void StoredTrajectory(const Trajectory& trajectory) {
    Scalar(trajectory.episode_return);
    for (int s = 0; s < trajectory.num_steps(); ++s) {
      const StoredStep& step = trajectory.steps[s];
      State(trajectory.StateBefore(s));
      State(trajectory.StateBefore(s + 1));
      Scalar<int32_t>(step.action);
      Scalar(step.reward);
      Scalar<uint8_t>(step.done ? 1 : 0);
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// The frozen value for the active SIMD level.
inline uint64_t ExpectedDigest(const TrainingGolden& golden) {
  return kernels::ActiveSimdCapability() == kernels::SimdCapability::kAvx2
             ? golden.avx2
             : golden.generic;
}

// "computed 0x... simd=<level>": the failure text a re-record copies from.
inline std::string DescribeComputed(uint64_t digest) {
  std::ostringstream out;
  out << "computed 0x" << std::hex << std::setw(16) << std::setfill('0')
      << digest << " simd="
      << kernels::SimdCapabilityName(kernels::ActiveSimdCapability());
  return out.str();
}

}  // namespace golden
}  // namespace pafeat

#endif  // PAFEAT_TESTS_GOLDEN_TRAINING_DIGESTS_H_
