#ifndef PAFEAT_DATA_FEATURE_MASK_H_
#define PAFEAT_DATA_FEATURE_MASK_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pafeat {

// A feature subset as a dense 0/1 mask over the shared feature space.
// This is the currency of the whole library: environments produce masks,
// evaluators consume them, and baselines return them.
using FeatureMask = std::vector<uint8_t>;

// Number of selected features.
int MaskCount(const FeatureMask& mask);

// Selected feature indices in increasing order.
std::vector<int> MaskToIndices(const FeatureMask& mask);

// Mask of size `num_features` with the given indices set.
FeatureMask IndicesToMask(const std::vector<int>& indices, int num_features);

// Byte-string key for hash maps that mix a mask with other bytes (e.g. the
// feat_based state memo). The hot reward-cache path uses PackMask instead.
std::string MaskKey(const FeatureMask& mask);

// A mask packed 64 bits per word: the reward-cache key. Compared to the
// byte-string MaskKey it hashes/compares eight features per op and skips
// std::string's character-wise hashing.
using PackedMask = std::vector<uint64_t>;

PackedMask PackMask(const FeatureMask& mask);

// splitmix64-finalizer-based mix over `count` packed words: the reward
// cache's index hashes its stored keys with it.
size_t HashPackedWords(const uint64_t* words, size_t count);

// HashPackedWords over a PackedMask, for unordered containers.
struct PackedMaskHash {
  size_t operator()(const PackedMask& packed) const {
    return HashPackedWords(packed.data(), packed.size());
  }
};

// Human-readable form such as "{0, 3, 7}" for logs and tests.
std::string MaskToString(const FeatureMask& mask);

}  // namespace pafeat

#endif  // PAFEAT_DATA_FEATURE_MASK_H_
