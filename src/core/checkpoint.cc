#include "core/checkpoint.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/logging.h"
#include "rl/fs_env.h"

namespace pafeat {
namespace {

constexpr uint32_t kMagic = 0x50414643;  // "PAFC"
// Version 2 added the weight-format byte after the net-config block.
// Version 3 appends the training-state section (SaveTrainingCheckpoint);
// the agent layout is unchanged, so plain SaveCheckpoint keeps writing
// version 2 and plain LoadCheckpoint reads a v3 file's agent section and
// ignores the trailer. Version 1 files (implicitly fp32) remain loadable;
// anything newer than kMaxVersion is rejected — an old binary must never
// misparse a future layout.
constexpr uint32_t kVersion = 2;
constexpr uint32_t kTrainingVersion = 3;
constexpr uint32_t kMaxVersion = 3;

template <typename T>
void WriteScalar(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
bool ReadScalar(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(*value));
  return static_cast<bool>(in);
}

// Bytes between the read position and the end of the file: the bound every
// count read from a header must fit before anything is sized by it.
uint64_t BytesLeft(std::istream& in) {
  const std::streampos here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff left = in.tellg() - here;
  in.seekg(here);
  return in && left > 0 ? static_cast<uint64_t>(left) : 0;
}

// Shared agent section of every format version. `why` receives the
// unprefixed failure reason (callers add the path).
void WriteAgentSection(std::ostream& out, const AgentCheckpoint& checkpoint,
                       uint32_t version) {
  WriteScalar(out, kMagic);
  WriteScalar(out, version);
  WriteScalar(out, static_cast<int32_t>(checkpoint.net_config.input_dim));
  WriteScalar(out, static_cast<int32_t>(checkpoint.net_config.num_actions));
  WriteScalar(out, static_cast<uint8_t>(
                       checkpoint.net_config.extra_rescale_layer ? 1 : 0));
  WriteScalar(out,
              static_cast<int32_t>(checkpoint.net_config.trunk_hidden.size()));
  for (int h : checkpoint.net_config.trunk_hidden) {
    WriteScalar(out, static_cast<int32_t>(h));
  }
  WriteScalar(out, checkpoint.weight_format);
  WriteScalar(out, checkpoint.max_feature_ratio);
  WriteScalar(out, static_cast<uint64_t>(checkpoint.parameters.size()));
  out.write(reinterpret_cast<const char*>(checkpoint.parameters.data()),
            static_cast<std::streamsize>(checkpoint.parameters.size() *
                                         sizeof(float)));
}

std::optional<AgentCheckpoint> ParseAgentSection(std::istream& in,
                                                 uint32_t* version_out,
                                                 std::string* why) {
  const auto fail = [&](const std::string& reason) {
    *why = reason;
    return std::optional<AgentCheckpoint>();
  };
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!ReadScalar(in, &magic) || magic != kMagic) {
    return fail("not a PA-FEAT checkpoint (bad magic)");
  }
  if (!ReadScalar(in, &version) || version < 1) {
    return fail("corrupt checkpoint header (bad format version)");
  }
  if (version > kMaxVersion) {
    return fail("checkpoint format version " + std::to_string(version) +
                " is newer than this binary understands (max " +
                std::to_string(kMaxVersion) + ")");
  }
  *version_out = version;

  AgentCheckpoint checkpoint;
  int32_t input_dim = 0;
  int32_t num_actions = 0;
  uint8_t extra_layer = 0;
  int32_t num_hidden = 0;
  if (!ReadScalar(in, &input_dim) || input_dim <= 0) {
    return fail("truncated or corrupt checkpoint (input dim)");
  }
  if (!ReadScalar(in, &num_actions) || num_actions <= 1) {
    return fail("truncated or corrupt checkpoint (action count)");
  }
  if (!ReadScalar(in, &extra_layer)) {
    return fail("truncated checkpoint (rescale-layer flag)");
  }
  if (!ReadScalar(in, &num_hidden) || num_hidden <= 0 || num_hidden > 64) {
    return fail("truncated or corrupt checkpoint (trunk layer count)");
  }
  checkpoint.net_config.input_dim = input_dim;
  checkpoint.net_config.num_actions = num_actions;
  checkpoint.net_config.extra_rescale_layer = extra_layer != 0;
  checkpoint.net_config.trunk_hidden.clear();
  for (int i = 0; i < num_hidden; ++i) {
    int32_t h = 0;
    if (!ReadScalar(in, &h) || h <= 0) {
      return fail("truncated or corrupt checkpoint (trunk layer dims)");
    }
    checkpoint.net_config.trunk_hidden.push_back(h);
  }
  if (version >= 2) {
    // A format byte this binary does not know means a payload it cannot
    // parse — reject rather than misread (version 1 had no byte: fp32).
    if (!ReadScalar(in, &checkpoint.weight_format)) {
      return fail("truncated checkpoint (weight-format byte)");
    }
    if (checkpoint.weight_format != kWeightFormatFp32) {
      return fail("unknown weight format " +
                  std::to_string(checkpoint.weight_format));
    }
  } else {
    checkpoint.weight_format = kWeightFormatFp32;
  }
  if (!ReadScalar(in, &checkpoint.max_feature_ratio)) {
    return fail("truncated checkpoint (max feature ratio)");
  }
  uint64_t param_count = 0;
  if (!ReadScalar(in, &param_count) || param_count == 0 ||
      param_count > (1ull << 31)) {
    return fail("truncated or corrupt checkpoint (parameter count)");
  }
  const uint64_t bytes_left = BytesLeft(in);
  if (param_count > bytes_left / sizeof(float)) {
    return fail("truncated checkpoint payload (parameter count " +
                std::to_string(param_count) + " needs " +
                std::to_string(param_count * sizeof(float)) + " bytes, " +
                std::to_string(bytes_left) + " left)");
  }
  checkpoint.parameters.resize(param_count);
  in.read(reinterpret_cast<char*>(checkpoint.parameters.data()),
          static_cast<std::streamsize>(param_count * sizeof(float)));
  if (!in) return fail("truncated checkpoint payload");

  // The decoded checkpoint must pass the same consistency screen a served
  // publish does (parameter fit, valid ratio, serving action layout).
  const std::string inconsistency = CheckpointConsistencyError(checkpoint);
  if (!inconsistency.empty()) return fail(inconsistency);
  return checkpoint;
}

}  // namespace

AgentCheckpoint MakeCheckpoint(const Feat& feat) {
  AgentCheckpoint checkpoint;
  checkpoint.net_config = feat.agent().online_net().config();
  checkpoint.max_feature_ratio = feat.config().max_feature_ratio;
  checkpoint.parameters = feat.agent().online_net().SerializeParams();
  return checkpoint;
}

bool SaveCheckpoint(const AgentCheckpoint& checkpoint,
                    const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  WriteAgentSection(out, checkpoint, kVersion);
  return static_cast<bool>(out);
}

std::optional<AgentCheckpoint> LoadCheckpoint(const std::string& path) {
  return LoadCheckpoint(path, nullptr);
}

std::optional<AgentCheckpoint> LoadCheckpoint(const std::string& path,
                                              std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open checkpoint file (" + path + ")";
    return std::nullopt;
  }
  uint32_t version = 0;
  std::string why;
  std::optional<AgentCheckpoint> checkpoint =
      ParseAgentSection(in, &version, &why);
  // A v3 trailer (training state) is deliberately ignored here: the serving
  // path never pays for it.
  if (!checkpoint.has_value() && error != nullptr) {
    *error = why + " (" + path + ")";
  }
  return checkpoint;
}

TrainingCheckpoint MakeTrainingCheckpoint(const PaFeat& pafeat) {
  TrainingCheckpoint checkpoint;
  checkpoint.agent = MakeCheckpoint(pafeat.feat());
  checkpoint.training_state = pafeat.SerializeTrainingState();
  return checkpoint;
}

bool SaveTrainingCheckpoint(const TrainingCheckpoint& checkpoint,
                            const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  WriteAgentSection(out, checkpoint.agent, kTrainingVersion);
  WriteScalar(out, static_cast<uint8_t>(
                       checkpoint.has_training_state() ? 1 : 0));
  WriteScalar(out, static_cast<uint64_t>(checkpoint.training_state.size()));
  out.write(reinterpret_cast<const char*>(checkpoint.training_state.data()),
            static_cast<std::streamsize>(checkpoint.training_state.size()));
  return static_cast<bool>(out);
}

std::optional<TrainingCheckpoint> LoadTrainingCheckpoint(
    const std::string& path, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why + " (" + path + ")";
    return std::optional<TrainingCheckpoint>();
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail("cannot open checkpoint file");
  uint32_t version = 0;
  std::string why;
  std::optional<AgentCheckpoint> agent =
      ParseAgentSection(in, &version, &why);
  if (!agent.has_value()) return fail(why);
  TrainingCheckpoint checkpoint;
  checkpoint.agent = std::move(*agent);
  if (version < kTrainingVersion) return checkpoint;  // cold: params only
  uint8_t has_training = 0;
  uint64_t blob_size = 0;
  if (!ReadScalar(in, &has_training) || !ReadScalar(in, &blob_size)) {
    return fail("truncated checkpoint (training-state header)");
  }
  if (has_training == 0) {
    if (blob_size != 0) {
      return fail("corrupt checkpoint (phantom training-state payload)");
    }
    return checkpoint;
  }
  if (blob_size == 0 || blob_size > BytesLeft(in)) {
    return fail("truncated or corrupt checkpoint (training-state size)");
  }
  checkpoint.training_state.resize(blob_size);
  in.read(reinterpret_cast<char*>(checkpoint.training_state.data()),
          static_cast<std::streamsize>(blob_size));
  if (!in) return fail("truncated checkpoint (training-state payload)");
  return checkpoint;
}

bool RestoreTrainingCheckpoint(const TrainingCheckpoint& checkpoint,
                               PaFeat* pafeat, std::string* error) {
  PF_CHECK(pafeat != nullptr);
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  const std::string inconsistency =
      CheckpointConsistencyError(checkpoint.agent);
  if (!inconsistency.empty()) return fail(inconsistency);
  if (!pafeat->feat().agent().online_net().DeserializeParams(
          checkpoint.agent.parameters)) {
    return fail("online parameters do not fit this architecture");
  }
  if (!checkpoint.has_training_state()) return true;  // cold resume
  return pafeat->RestoreTrainingState(checkpoint.training_state, error);
}

std::string CheckpointConsistencyError(const AgentCheckpoint& checkpoint) {
  const DuelingNetConfig& net = checkpoint.net_config;
  if (checkpoint.weight_format != kWeightFormatFp32) {
    return "unsupported weight format " +
           std::to_string(checkpoint.weight_format);
  }
  if (net.input_dim < 5 || (net.input_dim - 3) % 2 != 0) {
    return "input dim " + std::to_string(net.input_dim) +
           " is not a valid observation layout (2m + 3)";
  }
  if (net.num_actions != kNumActions) {
    return "action count " + std::to_string(net.num_actions) +
           " does not match the select/deselect serving plane";
  }
  if (net.trunk_hidden.empty()) return "empty trunk architecture";
  for (int h : net.trunk_hidden) {
    if (h <= 0) return "non-positive trunk layer width";
  }
  if (!(checkpoint.max_feature_ratio > 0.0) ||
      checkpoint.max_feature_ratio > 1.0) {
    return "max feature ratio outside (0, 1]";
  }
  // The parameter vector must exactly fit the architecture, counted without
  // building it: a hostile header must not size a net.
  const std::optional<int> expected = DuelingNet::CountParams(net);
  if (!expected.has_value()) {
    return "architecture too large: input dim " +
           std::to_string(net.input_dim) +
           " and the trunk widths need more than 2^31 - 1 parameters";
  }
  if (static_cast<std::size_t>(*expected) != checkpoint.parameters.size()) {
    return "parameter count " + std::to_string(checkpoint.parameters.size()) +
           " does not fit the architecture (expected " +
           std::to_string(*expected) + ")";
  }
  // A diverged training run can write NaN or Inf weights. Nothing serves or
  // resumes from them: the greedy scan's first-layer carry is exact only for
  // finite weights (0 * Inf is NaN), and a net that outputs NaN picks no
  // meaningful subset.
  for (std::size_t i = 0; i < checkpoint.parameters.size(); ++i) {
    if (!std::isfinite(checkpoint.parameters[i])) {
      return "parameter " + std::to_string(i) + " is not finite (" +
             std::to_string(checkpoint.parameters[i]) + ")";
    }
  }
  return "";
}

CheckpointedSelector::CheckpointedSelector(const AgentCheckpoint& checkpoint)
    : max_feature_ratio_(checkpoint.max_feature_ratio) {
  const std::string inconsistency = CheckpointConsistencyError(checkpoint);
  PF_CHECK(inconsistency.empty())
      << "internally inconsistent checkpoint: " << inconsistency;
  Rng rng(0);
  net_ = std::make_unique<DuelingNet>(checkpoint.net_config, &rng);
  PF_CHECK(net_->DeserializeParams(checkpoint.parameters));
}

std::optional<CheckpointedSelector> CheckpointedSelector::FromFile(
    const std::string& path, std::string* error) {
  const std::optional<AgentCheckpoint> checkpoint =
      LoadCheckpoint(path, error);
  if (!checkpoint.has_value()) return std::nullopt;
  return CheckpointedSelector(*checkpoint);
}

FeatureMask CheckpointedSelector::SelectForRepresentation(
    const std::vector<float>& representation) const {
  return GreedySelectSubset(*net_, representation, max_feature_ratio_);
}

}  // namespace pafeat
