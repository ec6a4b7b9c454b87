// Checkpoint v3 warm resume (DESIGN.md "Bounded memory plane"): a training
// run interrupted by save/load must continue bit-identically to the
// uninterrupted run — network parameters, replay contents, reward-cache
// values, Experience-Trees and the RNG stream all round-trip. v1/v2 files
// still load (cold), and plain LoadCheckpoint ignores the v3 trailer.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/defaults.h"
#include "core/pafeat.h"
#include "data/synthetic.h"
#include "memory/persistence.h"

namespace pafeat {
namespace {

SyntheticDataset ResumeDataset() {
  SyntheticSpec spec;
  spec.num_instances = 300;
  spec.num_features = 10;
  spec.num_seen_tasks = 3;
  spec.num_unseen_tasks = 1;
  spec.seed = 41;
  return GenerateSynthetic(spec);
}

PaFeatConfig ResumeConfig() {
  PaFeatConfig config;
  config.feat = DefaultFeatOptions(60, 31).feat;
  config.feat.envs_per_iteration = 6;
  return config;
}

std::string TempPath(const char* tag) {
  std::ostringstream out;
  out << ::testing::TempDir() << "/pafeat_warm_resume_" << tag << ".ckpt";
  return out.str();
}

std::string DumpRun(Feat& feat) {
  std::ostringstream out;
  for (float parameter : feat.agent().online_net().SerializeParams()) {
    uint32_t bits = 0;
    std::memcpy(&bits, &parameter, sizeof(bits));
    out << bits << ' ';
  }
  out << '\n';
  for (int slot = 0; slot < feat.num_tasks(); ++slot) {
    const ReplayBuffer& buffer = *feat.task_runtime(slot).buffer;
    out << "slot " << slot << " transitions " << buffer.num_transitions()
        << '\n';
    buffer.ForEachStored([&](const Trajectory& trajectory, double priority) {
      uint64_t bits = 0;
      std::memcpy(&bits, &trajectory.episode_return, sizeof(bits));
      out << ' ' << bits << '/' << priority << '/'
          << trajectory.num_steps() << '\n';
    });
  }
  return out.str();
}

// Where one length field of a serialized training state sits, and the
// field name the loader's error must carry when the count is corrupt.
struct LengthField {
  const char* name;
  std::size_t offset;
  std::size_t width;  // 8 for the agent vectors' counts, else 4
};

// Walks a valid PaFeat training-state blob (Feat::SerializeTrainingState's
// layout, then the E-Tree section at `feat_bytes`) and records every kind
// of length field: the agent vectors, then the first task's recent
// returns, trajectories, first trajectory's transitions and reward-cache
// entries, and the first E-Tree's node count.
std::vector<LengthField> LocateLengthFields(
    const std::vector<std::uint8_t>& blob, std::size_t feat_bytes,
    std::size_t num_features) {
  ByteReader in(blob);
  std::vector<std::uint8_t> sink;
  const auto skip = [&](std::size_t bytes) {
    sink.resize(bytes);
    if (bytes > 0) in.Raw(sink.data(), bytes);
  };
  const auto offset = [&] { return blob.size() - in.remaining(); };
  std::vector<LengthField> fields;
  const auto vector_field = [&](const char* name, std::size_t element) {
    fields.push_back({name, offset(), 8});
    const std::uint64_t count = in.U64();
    skip(count * element);
    return count;
  };
  skip(4 + 4 + 6 * 8 + 8 + 8);  // magic, version, RNG, iteration, steps
  vector_field("target parameters", sizeof(float));
  skip(8);  // Adam step
  vector_field("optimizer moments", sizeof(float));
  vector_field("optimizer moments", sizeof(float));
  const std::uint64_t popart_tasks =
      vector_field("PopArt statistics", sizeof(double));
  vector_field("PopArt statistics", sizeof(double));
  skip(popart_tasks + 4 + 4 + 4);  // PopArt flags, features, tasks, label
  fields.push_back({"recent-return count", offset(), 4});
  skip(in.U32() * sizeof(double));
  fields.push_back({"trajectory count", offset(), 4});
  const std::uint32_t trajectories = in.U32();
  for (std::uint32_t t = 0; t < trajectories; ++t) {
    skip(2 * sizeof(double));  // priority, return
    if (t == 0) fields.push_back({"transition count", offset(), 4});
    skip(in.U32() * (2 * (4 + num_features) + 4 + 4 + 1));
  }
  fields.push_back({"reward-cache entry count", offset(), 4});
  fields.push_back({"E-Tree node count", feat_bytes + 1, 4});
  EXPECT_TRUE(in.ok());
  EXPECT_GT(trajectories, 0u) << "the walk needs a stored trajectory";
  return fields;
}

class WarmResumeTest : public ::testing::Test {
 protected:
  WarmResumeTest()
      : dataset_(ResumeDataset()),
        problem_a_(dataset_.table, DefaultProblemConfig(true), 19),
        problem_b_(dataset_.table, DefaultProblemConfig(true), 19) {}

  SyntheticDataset dataset_;
  FsProblem problem_a_;
  FsProblem problem_b_;
};

TEST_F(WarmResumeTest, ResumedRunMatchesUninterruptedRun) {
  // Reference: 12 uninterrupted iterations.
  PaFeat uninterrupted(&problem_a_, dataset_.SeenTaskIndices(),
                       ResumeConfig());
  uninterrupted.Train(12);

  // Interrupted: 5 iterations, checkpoint to disk, restore into a fresh
  // instance over a fresh problem, 7 more iterations.
  PaFeat first_half(&problem_b_, dataset_.SeenTaskIndices(), ResumeConfig());
  first_half.Train(5);
  const std::string path = TempPath("roundtrip");
  ASSERT_TRUE(SaveTrainingCheckpoint(MakeTrainingCheckpoint(first_half),
                                     path));

  std::string error;
  const auto loaded = LoadTrainingCheckpoint(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_TRUE(loaded->has_training_state());

  FsProblem problem_c(dataset_.table, DefaultProblemConfig(true), 19);
  PaFeat resumed(&problem_c, dataset_.SeenTaskIndices(), ResumeConfig());
  ASSERT_TRUE(RestoreTrainingCheckpoint(*loaded, &resumed, &error)) << error;
  resumed.Train(7);

  EXPECT_EQ(DumpRun(uninterrupted.feat()), DumpRun(resumed.feat()));

  // The further-training path reuses the restored machinery identically too.
  const int unseen = dataset_.UnseenTaskIndices().front();
  const FeatureMask mask_a =
      uninterrupted.FurtherTrain(unseen, 3, 0, nullptr);
  const FeatureMask mask_b = resumed.FurtherTrain(unseen, 3, 0, nullptr);
  EXPECT_EQ(mask_a, mask_b);
  std::remove(path.c_str());
}

TEST_F(WarmResumeTest, InMemoryBlobRoundTripsThroughFreshInstance) {
  PaFeat original(&problem_a_, dataset_.SeenTaskIndices(), ResumeConfig());
  original.Train(4);
  const std::vector<std::uint8_t> blob = original.SerializeTrainingState();
  const std::vector<float> params =
      original.feat().agent().online_net().SerializeParams();

  PaFeat restored(&problem_b_, dataset_.SeenTaskIndices(), ResumeConfig());
  restored.feat().agent().online_net().DeserializeParams(params);
  std::string error;
  ASSERT_TRUE(restored.RestoreTrainingState(blob, &error)) << error;

  // Replay and agent state round-trip exactly.
  EXPECT_EQ(DumpRun(original.feat()), DumpRun(restored.feat()));

  // The reward-cache memo round-trips as a set: the restored instance's own
  // task-build lookups may reorder the export (they sit in the pending tier
  // and dedup the import), but every (key, value) pair survives.
  for (int slot = 0; slot < original.feat().num_tasks(); ++slot) {
    std::vector<std::pair<PackedMask, double>> a, b;
    original.feat().task_runtime(slot).context->evaluator->ExportCacheEntries(
        &a);
    restored.feat().task_runtime(slot).context->evaluator->ExportCacheEntries(
        &b);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "task slot " << slot;
  }

  // One round trip canonicalizes: serialize(restore(blob)) is a fixpoint.
  const std::vector<std::uint8_t> blob2 = restored.SerializeTrainingState();
  FsProblem problem_c(dataset_.table, DefaultProblemConfig(true), 19);
  PaFeat again(&problem_c, dataset_.SeenTaskIndices(), ResumeConfig());
  again.feat().agent().online_net().DeserializeParams(params);
  ASSERT_TRUE(again.RestoreTrainingState(blob2, &error)) << error;
  EXPECT_EQ(again.SerializeTrainingState(), blob2);
}

TEST_F(WarmResumeTest, V2FileLoadsColdAndV3TrailerIsIgnoredByPlainLoad) {
  PaFeat pafeat(&problem_a_, dataset_.SeenTaskIndices(), ResumeConfig());
  pafeat.Train(2);

  // A v2 file (plain SaveCheckpoint) loads as a training checkpoint with no
  // training state.
  const std::string v2_path = TempPath("v2");
  ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(pafeat.feat()), v2_path));
  std::string error;
  const auto cold = LoadTrainingCheckpoint(v2_path, &error);
  ASSERT_TRUE(cold.has_value()) << error;
  EXPECT_FALSE(cold->has_training_state());

  // A v3 file serves plain (serving-path) loads: the trailer is skipped and
  // the agent section matches the v2 payload.
  const TrainingCheckpoint training = MakeTrainingCheckpoint(pafeat);
  const std::string v3_path = TempPath("v3");
  ASSERT_TRUE(SaveTrainingCheckpoint(training, v3_path));
  const auto serving = LoadCheckpoint(v3_path, &error);
  ASSERT_TRUE(serving.has_value()) << error;
  EXPECT_EQ(serving->parameters, training.agent.parameters);
  EXPECT_EQ(serving->max_feature_ratio, training.agent.max_feature_ratio);

  std::remove(v2_path.c_str());
  std::remove(v3_path.c_str());
}

TEST_F(WarmResumeTest, TruncatedTrainingStateIsRejected) {
  PaFeat pafeat(&problem_a_, dataset_.SeenTaskIndices(), ResumeConfig());
  pafeat.Train(2);
  const std::string path = TempPath("truncated");
  ASSERT_TRUE(SaveTrainingCheckpoint(MakeTrainingCheckpoint(pafeat), path));

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes.resize(bytes.size() - 16);  // cut into the training-state blob
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  std::string error;
  EXPECT_FALSE(LoadTrainingCheckpoint(path, &error).has_value());
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

TEST_F(WarmResumeTest, InflatedLengthFieldsAreRejectedBeforeAllocating) {
  // Every count must fit in the bytes left, so an inflated count fails
  // instead of sizing gigabytes of containers first. In the whole blob the
  // field's own check fires and names it; in a blob cut right after the
  // field the load must fail too (an enclosing count may trip first).
  PaFeat pafeat(&problem_a_, dataset_.SeenTaskIndices(), ResumeConfig());
  pafeat.Train(2);
  const std::vector<std::uint8_t> blob = pafeat.SerializeTrainingState();
  ByteWriter feat_state;
  pafeat.feat().SerializeTrainingState(&feat_state);
  const std::vector<LengthField> fields = LocateLengthFields(
      blob, feat_state.data().size(), problem_a_.num_features());
  ASSERT_EQ(fields.size(), 10u);
  for (const LengthField& field : fields) {
    std::vector<std::uint8_t> hostile = blob;
    if (field.width == 8) {
      const std::uint64_t count = 1ull << 30;
      std::memcpy(&hostile[field.offset], &count, sizeof(count));
    } else {
      const std::uint32_t count = 0x7fffffff;
      std::memcpy(&hostile[field.offset], &count, sizeof(count));
    }
    for (const bool cut : {false, true}) {
      if (cut) hostile.resize(field.offset + field.width);
      PaFeat target(&problem_b_, dataset_.SeenTaskIndices(), ResumeConfig());
      std::string error;
      EXPECT_FALSE(target.RestoreTrainingState(hostile, &error))
          << field.name << (cut ? " (cut)" : "");
      EXPECT_FALSE(error.empty()) << field.name;
      if (!cut) {
        EXPECT_NE(error.find(field.name), std::string::npos)
            << "error \"" << error << "\" for the " << field.name
            << " at byte " << field.offset;
      }
    }
  }
}

TEST_F(WarmResumeTest, CorruptReplayRecordIsRejected) {
  // A replay record is stored as its start state and its decisions, so the
  // loader takes only steps the scan can take, chained into one scan. Each
  // patch below once restored, and the action and position ones then killed
  // the next Train (a failed action check; a read far outside the task
  // representation).
  PaFeat pafeat(&problem_a_, dataset_.SeenTaskIndices(), ResumeConfig());
  pafeat.Train(2);
  const std::vector<std::uint8_t> blob = pafeat.SerializeTrainingState();
  ByteWriter feat_state;
  pafeat.feat().SerializeTrainingState(&feat_state);
  const std::size_t m = problem_a_.num_features();
  std::size_t count_offset = 0;
  for (const LengthField& field :
       LocateLengthFields(blob, feat_state.data().size(), m)) {
    if (std::string(field.name) == "transition count") {
      count_offset = field.offset;
    }
  }
  ASSERT_GT(count_offset, 0u);
  // The first task's first trajectory: per step its position, mask, next
  // position, next mask, action, reward and done byte.
  std::uint32_t steps = 0;
  std::memcpy(&steps, &blob[count_offset], sizeof(steps));
  ASSERT_GE(steps, 2u);
  const std::size_t stride = 2 * (4 + m) + 4 + 4 + 1;
  const auto position_at = [&](std::uint32_t s) {
    return count_offset + 4 + s * stride;
  };
  const auto mask_at = [&](std::uint32_t s) { return position_at(s) + 4; };
  const auto next_position_at = [&](std::uint32_t s) {
    return mask_at(s) + m;
  };
  const auto next_mask_at = [&](std::uint32_t s) {
    return next_position_at(s) + 4;
  };
  const auto action_at = [&](std::uint32_t s) { return next_mask_at(s) + m; };
  const auto read_i32 = [&](std::size_t offset) {
    std::int32_t value = 0;
    std::memcpy(&value, &blob[offset], sizeof(value));
    return value;
  };
  std::uint32_t deselect = steps;
  for (std::uint32_t s = 0; s < steps && deselect == steps; ++s) {
    if (read_i32(action_at(s)) == 0) deselect = s;
  }
  ASSERT_LT(deselect, steps) << "the patch needs a deselect step";

  {
    PaFeat control(&problem_b_, dataset_.SeenTaskIndices(), ResumeConfig());
    std::string error;
    ASSERT_TRUE(control.RestoreTrainingState(blob, &error)) << error;
  }

  struct Patch {
    const char* what;
    std::size_t offset;
    std::int32_t value;  // written as int32, or as one byte when is_byte
    bool is_byte;
    const char* reason;
  };
  const std::int32_t position0 = read_i32(position_at(0));
  const std::uint32_t deselect_position =
      static_cast<std::uint32_t>(read_i32(position_at(deselect)));
  const std::vector<Patch> patches = {
      {"action 7", action_at(0), 7, false, "action is not 0 or 1"},
      {"position -100000000", position_at(0), -100000000, false,
       "outside [0, m)"},
      {"position m", position_at(0), static_cast<std::int32_t>(m), false,
       "outside [0, m)"},
      {"mask byte 2", mask_at(0), 2, true, "mask byte is not 0 or 1"},
      {"next position + 2", next_position_at(0), position0 + 2, false,
       "not its state advanced"},
      {"next bit flipped after a deselect",
       next_mask_at(deselect) + deselect_position,
       1 - blob[next_mask_at(deselect) + deselect_position], true,
       "not its state advanced"},
      {"state off the previous next state", position_at(1),
       read_i32(position_at(1)) + 1, false, "previous step's next state"},
  };
  for (const Patch& patch : patches) {
    std::vector<std::uint8_t> hostile = blob;
    if (patch.is_byte) {
      hostile[patch.offset] = static_cast<std::uint8_t>(patch.value);
    } else {
      std::memcpy(&hostile[patch.offset], &patch.value, sizeof(patch.value));
    }
    ASSERT_NE(hostile, blob) << patch.what;
    PaFeat target(&problem_b_, dataset_.SeenTaskIndices(), ResumeConfig());
    std::string error;
    EXPECT_FALSE(target.RestoreTrainingState(hostile, &error)) << patch.what;
    EXPECT_NE(error.find("replay"), std::string::npos)
        << patch.what << ": " << error;
    EXPECT_NE(error.find(patch.reason), std::string::npos)
        << patch.what << ": " << error;
  }
}

TEST_F(WarmResumeTest, RestoreRejectsMismatchedTaskList) {
  PaFeat pafeat(&problem_a_, dataset_.SeenTaskIndices(), ResumeConfig());
  pafeat.Train(2);
  const std::vector<std::uint8_t> blob = pafeat.SerializeTrainingState();

  // A restore target with fewer tasks must fail with a reason, not die.
  std::vector<int> fewer = dataset_.SeenTaskIndices();
  fewer.pop_back();
  PaFeat mismatched(&problem_b_, fewer, ResumeConfig());
  std::string error;
  EXPECT_FALSE(mismatched.RestoreTrainingState(blob, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace pafeat
