#include "core/checkpoint.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/defaults.h"
#include "core/multi_run.h"
#include "core/pafeat.h"
#include "data/synthetic.h"
#include "nn/dueling_net.h"
#include "rl/fs_env.h"
#include "serve/selection_server.h"

namespace pafeat {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest()
      : dataset_(MakeDataset()),
        problem_(dataset_.table, DefaultProblemConfig(true), 83) {
    FeatConfig config = DefaultFeatOptions(30, 84).feat;
    config.max_feature_ratio = 0.4;
    feat_ = std::make_unique<Feat>(&problem_, dataset_.SeenTaskIndices(),
                                   config);
    feat_->Train(30);
  }

  static SyntheticDataset MakeDataset() {
    SyntheticSpec spec;
    spec.num_instances = 250;
    spec.num_features = 10;
    spec.num_seen_tasks = 2;
    spec.num_unseen_tasks = 1;
    spec.seed = 85;
    return GenerateSynthetic(spec);
  }

  // One file per test: ctest runs the tests of this fixture as parallel
  // processes, which must not overwrite each other's checkpoint.
  std::string TempPath() const {
    return ::testing::TempDir() + "/pafeat_agent_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".ckpt";
  }

  SyntheticDataset dataset_;
  FsProblem problem_;
  std::unique_ptr<Feat> feat_;
};

TEST_F(CheckpointTest, RoundTripPreservesSelections) {
  const AgentCheckpoint checkpoint = MakeCheckpoint(*feat_);
  EXPECT_EQ(checkpoint.net_config.input_dim, 23);  // 2 * 10 + 3
  EXPECT_DOUBLE_EQ(checkpoint.max_feature_ratio, 0.4);

  const std::string path = TempPath();
  ASSERT_TRUE(SaveCheckpoint(checkpoint, path));
  const auto restored = CheckpointedSelector::FromFile(path);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->num_features(), 10);
  EXPECT_DOUBLE_EQ(restored->max_feature_ratio(), 0.4);

  // The restored selector reproduces the live agent's decisions exactly.
  for (int task = 0; task < problem_.num_tasks(); ++task) {
    const std::vector<float> repr = problem_.ComputeTaskRepresentation(task);
    EXPECT_EQ(restored->SelectForRepresentation(repr),
              feat_->SelectForRepresentation(repr))
        << "task " << task;
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, LoadRejectsMissingFile) {
  EXPECT_FALSE(LoadCheckpoint("/nonexistent/agent.ckpt").has_value());
  std::string error;
  EXPECT_FALSE(LoadCheckpoint("/nonexistent/agent.ckpt", &error).has_value());
  EXPECT_NE(error.find("cannot open checkpoint file"), std::string::npos)
      << error;
  EXPECT_NE(error.find("/nonexistent/agent.ckpt"), std::string::npos)
      << error;
}

TEST_F(CheckpointTest, LoadRejectsCorruptedMagic) {
  const std::string path = TempPath();
  {
    std::ofstream out(path, std::ios::binary);
    out << "garbage data that is not a checkpoint at all";
  }
  EXPECT_FALSE(LoadCheckpoint(path).has_value());
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, LoadRejectsTruncatedFile) {
  const std::string path = TempPath();
  ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(*feat_), path));
  // Truncate to half.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size() / 2));
  }
  EXPECT_FALSE(LoadCheckpoint(path).has_value());
  std::remove(path.c_str());
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Byte offset of the version-2 weight-format byte: magic(4) version(4)
// input_dim(4) num_actions(4) extra_rescale(1) num_hidden(4) + hidden dims.
size_t WeightFormatOffset(const AgentCheckpoint& checkpoint) {
  return 4 + 4 + 4 + 4 + 1 + 4 + 4 * checkpoint.net_config.trunk_hidden.size();
}

TEST_F(CheckpointTest, LoadAcceptsVersion1File) {
  // A version-1 file is today's layout minus the weight-format byte. Splice
  // one out of a fresh save so the pre-ladder format keeps loading forever.
  const AgentCheckpoint checkpoint = MakeCheckpoint(*feat_);
  const std::string path = TempPath();
  ASSERT_TRUE(SaveCheckpoint(checkpoint, path));
  std::string bytes = ReadAll(path);
  bytes.erase(WeightFormatOffset(checkpoint), 1);
  bytes[4] = 1;  // version field (little-endian uint32)
  WriteAll(path, bytes);

  const auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->weight_format, kWeightFormatFp32);
  EXPECT_EQ(loaded->parameters, checkpoint.parameters);
  EXPECT_DOUBLE_EQ(loaded->max_feature_ratio, checkpoint.max_feature_ratio);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, LoadRejectsFutureVersion) {
  const std::string path = TempPath();
  ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(*feat_), path));
  std::string bytes = ReadAll(path);
  bytes[4] = 4;  // a version this binary does not know
  WriteAll(path, bytes);
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(path, &error).has_value());
  EXPECT_NE(error.find("format version 4 is newer than this binary"),
            std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, LoadRejectsUnknownWeightFormat) {
  const AgentCheckpoint checkpoint = MakeCheckpoint(*feat_);
  const std::string path = TempPath();
  ASSERT_TRUE(SaveCheckpoint(checkpoint, path));
  std::string bytes = ReadAll(path);
  bytes[WeightFormatOffset(checkpoint)] = 7;  // not kWeightFormatFp32
  WriteAll(path, bytes);
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(path, &error).has_value());
  EXPECT_NE(error.find("unknown weight format 7"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, LoadRejectsParameterCountMismatch) {
  AgentCheckpoint checkpoint = MakeCheckpoint(*feat_);
  checkpoint.parameters.pop_back();
  const std::string path = TempPath();
  ASSERT_TRUE(SaveCheckpoint(checkpoint, path));
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(path, &error).has_value());
  EXPECT_NE(error.find("does not fit the architecture"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, LoadRejectsTruncatedPayloadWithReason) {
  const std::string path = TempPath();
  ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(*feat_), path));
  std::string bytes = ReadAll(path);
  bytes.resize(bytes.size() - 16);  // chop the parameter payload's tail
  WriteAll(path, bytes);
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(path, &error).has_value());
  EXPECT_NE(error.find("truncated checkpoint payload"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, ConsistencyErrorScreensServingMisuse) {
  const AgentCheckpoint good = MakeCheckpoint(*feat_);
  EXPECT_EQ(CheckpointConsistencyError(good), "");

  AgentCheckpoint bad_dim = good;
  bad_dim.net_config.input_dim = 24;  // not 2m + 3
  EXPECT_NE(CheckpointConsistencyError(bad_dim).find("observation layout"),
            std::string::npos);

  AgentCheckpoint bad_actions = good;
  bad_actions.net_config.num_actions = 3;
  EXPECT_NE(CheckpointConsistencyError(bad_actions).find("action count"),
            std::string::npos);

  AgentCheckpoint bad_ratio = good;
  bad_ratio.max_feature_ratio = 0.0;
  EXPECT_NE(
      CheckpointConsistencyError(bad_ratio).find("max feature ratio"),
      std::string::npos);
}

// --- non-finite parameters -------------------------------------------------
// A diverged training run can save NaN or Inf weights. Every path that
// trusts a checkpoint (the consistency screen, LoadCheckpoint after a save,
// SelectionServer::PublishCheckpoint and warm resume) rejects one with the
// first offending index: the first parameter, a first-layer weight and the
// last parameter alike.
void ExpectNonFiniteParameterRejected(float value, const std::string& path) {
  // m = 12 features and a one-layer {16} trunk: parameters [0, 432) are the
  // first layer's weights.
  SyntheticSpec spec;
  spec.num_instances = 200;
  spec.num_features = 12;
  spec.num_seen_tasks = 2;
  spec.num_unseen_tasks = 1;
  spec.seed = 87;
  const SyntheticDataset dataset = GenerateSynthetic(spec);
  FsProblem problem(dataset.table, DefaultProblemConfig(true), 88);
  PaFeatConfig config;
  config.feat = DefaultFeatOptions(2, 89).feat;
  config.feat.dqn.net.trunk_hidden = {16};
  PaFeat trained(&problem, dataset.SeenTaskIndices(), config);
  trained.Train(2);
  const TrainingCheckpoint good = MakeTrainingCheckpoint(trained);
  ASSERT_EQ(good.agent.net_config.input_dim, 27);
  ASSERT_EQ(CheckpointConsistencyError(good.agent), "");
  SelectionServer server(good.agent);

  const std::size_t last = good.agent.parameters.size() - 1;
  for (const std::size_t index : {std::size_t{0}, std::size_t{40}, last}) {
    SCOPED_TRACE("parameter " + std::to_string(index));
    TrainingCheckpoint bad = good;
    bad.agent.parameters[index] = value;
    const std::string want =
        "parameter " + std::to_string(index) + " is not finite";

    EXPECT_NE(CheckpointConsistencyError(bad.agent).find(want),
              std::string::npos)
        << CheckpointConsistencyError(bad.agent);

    ASSERT_TRUE(SaveCheckpoint(bad.agent, path));
    std::string error;
    EXPECT_FALSE(LoadCheckpoint(path, &error).has_value());
    EXPECT_NE(error.find(want), std::string::npos) << error;
    EXPECT_FALSE(CheckpointedSelector::FromFile(path).has_value());

    error.clear();
    EXPECT_FALSE(server.PublishCheckpoint(bad.agent, &error));
    EXPECT_NE(error.find(want), std::string::npos) << error;

    PaFeat resumed(&problem, dataset.SeenTaskIndices(), config);
    error.clear();
    EXPECT_FALSE(RestoreTrainingCheckpoint(bad, &resumed, &error));
    EXPECT_NE(error.find(want), std::string::npos) << error;
  }
  EXPECT_EQ(server.net_version(), 1u);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, NanParameterIsRejected) {
  ExpectNonFiniteParameterRejected(std::numeric_limits<float>::quiet_NaN(),
                                   TempPath());
}

TEST_F(CheckpointTest, PositiveInfParameterIsRejected) {
  ExpectNonFiniteParameterRejected(std::numeric_limits<float>::infinity(),
                                   TempPath());
}

TEST_F(CheckpointTest, NegativeInfParameterIsRejected) {
  ExpectNonFiniteParameterRejected(-std::numeric_limits<float>::infinity(),
                                   TempPath());
}

// --- hostile files ----------------------------------------------------------
// A header may claim any architecture and any count; the loader must reject
// what the file cannot back before sizing anything by it. ctest
// pafeat_hostile_input_capped reruns these under `ulimit -v 1500000`, where
// a container sized by such a field dies with std::bad_alloc.

// A v2 agent header with one 64-wide trunk layer, then `param_count` and
// `floats` zero payload values.
std::string AgentHeader(int32_t input_dim, uint64_t param_count, int floats) {
  std::string bytes;
  const auto put = [&bytes](auto value) {
    bytes.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(uint32_t{0x50414643});  // "PAFC"
  put(uint32_t{2});           // format version
  put(input_dim);
  put(int32_t{kNumActions});
  put(uint8_t{0});  // no rescale layer
  put(int32_t{1});  // trunk layer count
  put(int32_t{64});
  put(kWeightFormatFp32);
  put(0.5);  // max feature ratio
  put(param_count);
  for (int i = 0; i < floats; ++i) put(0.0f);
  return bytes;
}

std::string HostilePath() {
  return ::testing::TempDir() + "/pafeat_hostile_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ".ckpt";
}

// A consistent untrained checkpoint over m = 10 features.
AgentCheckpoint SmallCheckpoint() {
  AgentCheckpoint checkpoint;
  checkpoint.net_config.input_dim = 23;
  checkpoint.net_config.num_actions = kNumActions;
  checkpoint.net_config.trunk_hidden = {64};
  Rng rng(5);
  checkpoint.parameters = DuelingNet(checkpoint.net_config, &rng)
                              .SerializeParams();
  return checkpoint;
}

TEST(HostileCheckpointTest, OversizedArchitectureIsRejected) {
  // 46 bytes: a 2^31-wide input layer, backed by one parameter.
  const std::string path = HostilePath();
  WriteAll(path, AgentHeader(2147483645, 1, 1));
  ASSERT_EQ(ReadAll(path).size(), 46u);
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(path, &error).has_value());
  EXPECT_NE(error.find("input dim 2147483645"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(HostileCheckpointTest, InflatedParameterCountIsRejectedBeforeAllocating) {
  // 42 bytes: a valid small header claiming 2^31 parameters, no payload.
  const std::string path = HostilePath();
  WriteAll(path, AgentHeader(23, 1ull << 31, 0));
  ASSERT_EQ(ReadAll(path).size(), 42u);
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(path, &error).has_value());
  EXPECT_NE(error.find("parameter count 2147483648"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST(HostileCheckpointTest,
     InflatedTrainingStateSizeIsRejectedBeforeAllocating) {
  // A v3 file whose training-state size claims 8 GiB, with no blob.
  TrainingCheckpoint training;
  training.agent = SmallCheckpoint();
  training.training_state = {1};
  const std::string path = HostilePath();
  ASSERT_TRUE(SaveTrainingCheckpoint(training, path));
  std::string bytes = ReadAll(path);
  bytes.pop_back();  // the blob
  const uint64_t inflated = 1ull << 33;
  bytes.replace(bytes.size() - sizeof(inflated), sizeof(inflated),
                reinterpret_cast<const char*>(&inflated), sizeof(inflated));
  WriteAll(path, bytes);
  std::string error;
  EXPECT_FALSE(LoadTrainingCheckpoint(path, &error).has_value());
  EXPECT_NE(error.find("training-state size"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(HostileCheckpointTest, PublishRejectsOversizedArchitecture) {
  SelectionServer server(SmallCheckpoint());
  AgentCheckpoint hostile = SmallCheckpoint();
  hostile.net_config.input_dim = 2147483645;
  hostile.parameters = {0.0f};
  std::string error;
  EXPECT_FALSE(server.PublishCheckpoint(hostile, &error));
  EXPECT_NE(error.find("input dim 2147483645"), std::string::npos) << error;
  EXPECT_EQ(server.net_version(), 1u);
}

TEST(HostileCheckpointTest, CountParamsMatchesBuiltNet) {
  const std::vector<std::vector<int>> trunks = {{7}, {7, 5}, {7, 5, 3}};
  for (const bool extra_rescale_layer : {false, true}) {
    for (const std::vector<int>& trunk : trunks) {
      DuelingNetConfig config;
      config.input_dim = 13;
      config.num_actions = kNumActions;
      config.trunk_hidden = trunk;
      config.extra_rescale_layer = extra_rescale_layer;
      Rng rng(3);
      const DuelingNet net(config, &rng);
      EXPECT_EQ(DuelingNet::CountParams(config), net.NumParams())
          << trunk.size() << " trunk layers, rescale "
          << extra_rescale_layer;
    }
  }
  DuelingNetConfig huge;
  huge.input_dim = std::numeric_limits<int>::max();
  huge.trunk_hidden = {64};
  EXPECT_FALSE(DuelingNet::CountParams(huge).has_value());
}

TEST(MultiRunTest, SummarizeBasics) {
  const RunStatistics statistics = Summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(statistics.runs, 4);
  EXPECT_DOUBLE_EQ(statistics.mean, 2.5);
  EXPECT_DOUBLE_EQ(statistics.min, 1.0);
  EXPECT_DOUBLE_EQ(statistics.max, 4.0);
  EXPECT_NEAR(statistics.stddev, 1.2909944, 1e-6);
}

TEST(MultiRunTest, SingleRunHasZeroStddev) {
  const RunStatistics statistics = Summarize({0.7});
  EXPECT_EQ(statistics.runs, 1);
  EXPECT_DOUBLE_EQ(statistics.stddev, 0.0);
}

TEST(MultiRunTest, RepeatRunsPassesDistinctSeeds) {
  std::vector<uint64_t> seeds;
  const RunStatistics statistics =
      RepeatRuns(3, 100, [&](uint64_t seed) {
        seeds.push_back(seed);
        return static_cast<double>(seed);
      });
  EXPECT_EQ(seeds, (std::vector<uint64_t>{100, 101, 102}));
  EXPECT_DOUBLE_EQ(statistics.mean, 101.0);
}

TEST(MultiRunTest, FormatMeanStd) {
  RunStatistics statistics;
  statistics.mean = 0.73125;
  statistics.stddev = 0.0125;
  EXPECT_EQ(FormatMeanStd(statistics, 3), "0.731 ± 0.013");
}

}  // namespace
}  // namespace pafeat
