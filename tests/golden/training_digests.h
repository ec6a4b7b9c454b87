#ifndef PAFEAT_TESTS_GOLDEN_TRAINING_DIGESTS_H_
#define PAFEAT_TESTS_GOLDEN_TRAINING_DIGESTS_H_

// Frozen training digests for TrainingGoldenTest (its TrainingDigest
// defines the recipe). One value per SIMD group: generic, and avx2 shared
// with avx512, whose fp32 kernels replay avx2's operation sequence bit for
// bit. The values hold for the portable build flags (Release -O2 with the
// per-TU kernel flags of src/CMakeLists.txt, Debug, and the sanitizer and
// checked builds); a build that retunes the whole library for one CPU is
// outside the contract.
//
// Provenance: recorded at commit 8bacbd2, where the blocking reference
// loop (Feat::RunEpisode, selected by FeatConfig::batched_inference =
// false) gave the same digests at 1 and 8 threads as the batched collector
// at {1, 8} threads x {1, 4} shards. A deliberate re-record copies the
// "computed" value the failing test prints.

#include <cstdint>

namespace pafeat {
namespace golden {

struct TrainingGolden {
  uint64_t generic;
  uint64_t avx2;  // also avx512
};

// Plain FEAT: SmallDataset, DefaultFeatOptions(50, 23), 4 envs, mfr 0.5.
inline constexpr TrainingGolden kFeatTraining = {0x95f7d7a7113166f9ULL,
                                                 0x1fff4c47b6a0f1cfULL};
// Full PaFeat (ITS + ITE): SmallDataset, DefaultFeatOptions(60, 23), 8 envs.
inline constexpr TrainingGolden kPaFeatTraining = {0x134321b5449a42d3ULL,
                                                   0x531128c431ff2a0fULL};

}  // namespace golden
}  // namespace pafeat

#endif  // PAFEAT_TESTS_GOLDEN_TRAINING_DIGESTS_H_
