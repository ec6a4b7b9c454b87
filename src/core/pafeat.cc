#include "core/pafeat.h"

#include "common/logging.h"
#include "common/timer.h"

namespace pafeat {

PaFeat::PaFeat(FsProblem* problem, std::vector<int> seen_label_indices,
               const PaFeatConfig& config)
    : config_(config) {
  feat_ = std::make_unique<Feat>(problem, seen_label_indices, config.feat);
  if (config.use_its) {
    feat_->SetScheduler(std::make_unique<ItsScheduler>(
        config.its_recent_n, config.its_temperature,
        config.its_min_share_of_uniform));
  }
  if (config.use_ite) {
    auto explorer = std::make_unique<IntraTaskExplorer>(
        feat_->num_tasks(), problem->num_features(), config.ite);
    explorer_ = explorer.get();
    feat_->SetInitialStateProvider(std::move(explorer));
  }
}

std::vector<std::uint8_t> PaFeat::SerializeTrainingState() const {
  ByteWriter writer;
  feat_->SerializeTrainingState(&writer);
  writer.U8(explorer_ != nullptr ? 1 : 0);
  if (explorer_ != nullptr) {
    for (int slot = 0; slot < feat_->num_tasks(); ++slot) {
      const std::vector<ETree::NodeData> nodes =
          explorer_->tree(slot).ExportNodes();
      writer.U32(static_cast<std::uint32_t>(nodes.size()));
      for (const ETree::NodeData& node : nodes) {
        writer.I32(node.child0);
        writer.I32(node.child1);
        writer.I32(node.visits);
        writer.F64(node.value_sum);
      }
    }
  }
  return writer.Take();
}

bool PaFeat::RestoreTrainingState(const std::vector<std::uint8_t>& blob,
                                  std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  ByteReader reader(blob);
  if (!feat_->RestoreTrainingState(&reader, error)) return false;
  const bool saved_explorer = reader.U8() != 0;
  if (!reader.ok()) return fail("truncated training state (explorer flag)");
  if (!saved_explorer) return true;
  // Consume the tree section even under the w/o-ITE ablation (a blob must
  // parse the same way regardless of this instance's switches); only a
  // live explorer actually takes the nodes.
  for (int slot = 0; slot < feat_->num_tasks(); ++slot) {
    // A node record is three int32 fields and a double.
    const std::uint32_t node_count = reader.U32();
    if (!reader.ok() ||
        node_count > reader.remaining() /
                         (3 * sizeof(std::int32_t) + sizeof(double))) {
      return fail("corrupt training state (E-Tree node count)");
    }
    std::vector<ETree::NodeData> nodes(node_count);
    for (ETree::NodeData& node : nodes) {
      node.child0 = reader.I32();
      node.child1 = reader.I32();
      node.visits = reader.I32();
      node.value_sum = reader.F64();
    }
    if (!reader.ok()) return fail("truncated training state (E-Tree)");
    if (explorer_ != nullptr) {
      explorer_->EnsureTask(slot);
      if (!explorer_->mutable_tree(slot)->ImportNodes(nodes)) {
        return fail("corrupt training state (E-Tree topology)");
      }
    }
  }
  return true;
}

FeatureMask PaFeat::SelectFeatures(int unseen_label_index,
                                   double* execution_seconds) {
  return feat_->SelectForTask(unseen_label_index, execution_seconds);
}

std::vector<FeatureMask> PaFeat::SelectFeaturesForTasks(
    const std::vector<int>& unseen_label_indices,
    double* execution_seconds) {
  WallTimer timer;
  std::vector<std::vector<float>> reprs;
  reprs.reserve(unseen_label_indices.size());
  for (int label_index : unseen_label_indices) {
    reprs.push_back(feat_->problem().ComputeTaskRepresentation(label_index));
  }
  std::vector<FeatureMask> masks =
      feat_->SelectForRepresentations(reprs);
  if (execution_seconds != nullptr) {
    *execution_seconds = timer.ElapsedSeconds();
  }
  return masks;
}

FeatureMask PaFeat::FurtherTrain(
    int unseen_label_index, int iterations, int callback_every,
    const std::function<void(int iteration, const FeatureMask&)>& callback) {
  PF_CHECK_GT(iterations, 0);
  // Initialize a DRL environment for the unseen task and continue training
  // the (already generalized) agent on it (§IV-D). The new task gets its own
  // buffer, E-Tree slot and scheduling share — unless a warm resume already
  // restored the task, in which case its slot (buffer, cache, tree and all)
  // is reused instead of duplicated.
  int slot = feat_->FindTask(unseen_label_index);
  if (slot < 0) slot = feat_->AddTask(unseen_label_index);
  if (explorer_ != nullptr) explorer_->EnsureTask(slot);
  feat_->SetFocusTask(slot);

  const std::vector<float>& repr =
      feat_->task_runtime(slot).context->representation;
  for (int i = 1; i <= iterations; ++i) {
    feat_->RunIteration();
    if (callback && callback_every > 0 &&
        (i % callback_every == 0 || i == iterations)) {
      callback(i, feat_->SelectForRepresentation(repr));
    }
  }
  return feat_->SelectForRepresentation(repr);
}

}  // namespace pafeat
