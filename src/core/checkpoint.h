#ifndef PAFEAT_CORE_CHECKPOINT_H_
#define PAFEAT_CORE_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/feat.h"
#include "core/greedy_policy.h"
#include "core/pafeat.h"
#include "nn/dueling_net.h"

namespace pafeat {

// Weight payload formats named by the checkpoint header (format version 2+).
// Today only fp32 is persisted, but the field means a future payload format
// bumps the format constant instead of silently changing the layout, and
// old binaries reject what they cannot parse instead of misreading it.
inline constexpr std::uint8_t kWeightFormatFp32 = 0;

// Persistence for trained agents: the offline knowledge-generalization phase
// runs once (possibly for hours), then the serving path reloads the Q-network
// and answers unseen tasks in milliseconds — potentially in a different
// process. The format is a little-endian binary blob with a magic/version
// header; Load validates sizes and returns std::nullopt on any corruption,
// unknown version, or unknown weight format. Version 1 files (which predate
// the weight-format field and always held fp32) still load.
struct AgentCheckpoint {
  DuelingNetConfig net_config;
  double max_feature_ratio = 0.5;
  std::uint8_t weight_format = kWeightFormatFp32;
  std::vector<float> parameters;
};

// Snapshot of a trained FEAT/PA-FEAT agent.
AgentCheckpoint MakeCheckpoint(const Feat& feat);

// Binary (de)serialization. Save returns false on I/O failure.
bool SaveCheckpoint(const AgentCheckpoint& checkpoint,
                    const std::string& path);
std::optional<AgentCheckpoint> LoadCheckpoint(const std::string& path);

// Status-returning load for serving control planes (the SelectionServer's
// PublishCheckpoint path must reject a bad file without dying): on failure,
// `error` (when non-null) receives a one-line reason — missing file, bad
// magic, format version newer than this binary, truncated payload, unknown
// weight format, or a parameter vector that does not fit the architecture.
// The plain overload above wraps this one with error == nullptr.
std::optional<AgentCheckpoint> LoadCheckpoint(const std::string& path,
                                              std::string* error);

// Checkpoint format v3 (DESIGN.md "Bounded memory plane"): the v2 agent
// layout followed by an opaque training-state blob — RNG stream, iteration
// index, agent target/optimizer/PopArt state, per-task replay trajectories
// with priorities, reward-cache contents and Experience-Trees — so
// FurtherTrain resumes warm instead of refilling its buffers from scratch.
// SaveCheckpoint keeps writing version 2 (serving consumers never pay for
// training state); v1/v2 files load here with an empty blob (cold resume).
struct TrainingCheckpoint {
  AgentCheckpoint agent;
  std::vector<std::uint8_t> training_state;  // empty = cold (v1/v2 file)

  bool has_training_state() const { return !training_state.empty(); }
};

// Snapshot of a mid-training PA-FEAT run (online parameters + training
// state).
TrainingCheckpoint MakeTrainingCheckpoint(const PaFeat& pafeat);

// Binary (de)serialization of the v3 format. Save returns false on I/O
// failure; Load accepts v1-v3 files and surfaces corruption through `error`
// exactly like LoadCheckpoint.
bool SaveTrainingCheckpoint(const TrainingCheckpoint& checkpoint,
                            const std::string& path);
std::optional<TrainingCheckpoint> LoadTrainingCheckpoint(
    const std::string& path, std::string* error = nullptr);

// Restores a loaded checkpoint into a freshly constructed PaFeat over the
// same problem and task list: online parameters first, then (when the file
// carried one) the training-state blob. Returns false with a reason in
// `error` on any mismatch; the PaFeat must then be discarded. Without a
// blob the result is a cold resume — parameters only.
bool RestoreTrainingCheckpoint(const TrainingCheckpoint& checkpoint,
                               PaFeat* pafeat, std::string* error);

// Serving-side validation of an in-memory checkpoint: returns "" exactly
// when the PF_CHECK constructors below would accept it, else the reason —
// including the first parameter that is NaN or infinite, since a diverged
// run can save one. Never dies — this is the check a long-lived server runs
// before swapping in a published checkpoint (a misuse that must surface as
// a rejected publish, not a dead serving process), and the one loading and
// warm resume run.
std::string CheckpointConsistencyError(const AgentCheckpoint& checkpoint);

// Serving-side selector restored from a checkpoint: no problem, classifiers
// or replay state — just the network and the greedy execution path.
class CheckpointedSelector {
 public:
  // Dies (PF_CHECK) on an internally inconsistent checkpoint; prefer
  // FromFile which surfaces I/O and corruption as nullopt.
  explicit CheckpointedSelector(const AgentCheckpoint& checkpoint);

  // Surfaces I/O and corruption as nullopt; `error` (when non-null)
  // receives the LoadCheckpoint failure reason.
  static std::optional<CheckpointedSelector> FromFile(
      const std::string& path, std::string* error = nullptr);

  // Greedy subset for an unseen task's representation.
  FeatureMask SelectForRepresentation(
      const std::vector<float>& representation) const;

  int num_features() const { return (net_->config().input_dim - 3) / 2; }
  double max_feature_ratio() const { return max_feature_ratio_; }

 private:
  std::unique_ptr<DuelingNet> net_;
  double max_feature_ratio_;
};

}  // namespace pafeat

#endif  // PAFEAT_CORE_CHECKPOINT_H_
