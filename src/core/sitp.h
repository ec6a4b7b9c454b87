#ifndef PAFEAT_CORE_SITP_H_
#define PAFEAT_CORE_SITP_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/feat.h"

namespace pafeat {

// Success-induced task prioritization (after "Success-Induced Task
// Prioritization", arXiv 2301.00691), adapted to the FEAT scheduler hook as
// an ablation alternative to the ITS: a task's share of the iteration's
// episodes follows how much its success rate moved since the last
// scheduling decision — tasks whose performance is still changing (in
// either direction) are where training signal lives, tasks whose success
// has plateaued yield their resources.
struct SitpConfig {
  // Softmax sharpness over the normalized progress scores; mirrors the ITS
  // temperature (see its.h for why the default is well below 1).
  double temperature = 0.2;
  // Every task keeps at least this fraction of the uniform share, so a
  // plateaued task is throttled, never starved.
  double min_share_of_uniform = 0.5;
  // Weight of the exploration nomination: the reserved scheduler stream
  // nominates one task per iteration, giving plateaued tasks a
  // deterministic, seed-driven chance to re-enter the rotation.
  double exploration_bonus = 0.25;
};

// TaskScheduler implementing SITP. BeginIteration consumes one draw from
// the reserved scheduler stream (forked on the (iteration, 0) path off a
// root-seeded generator, so the nomination sequence is a pure function of
// seed and iteration — never of timing or the thread count). Probabilities
// then scores each task by the absolute change of its success rate
// (average recent episode return over the full-feature baseline) since the
// previous iteration, adds the nomination bonus, and runs the ITS-style
// normalize / softmax / min-share pipeline.
class SitpScheduler : public TaskScheduler {
 public:
  explicit SitpScheduler(const SitpConfig& config = {}) : config_(config) {}

  void BeginIteration(Rng* stream) override;
  std::vector<double> Probabilities(
      const std::vector<SeenTaskRuntime>& tasks) override;

  const SitpConfig& config() const { return config_; }

 private:
  SitpConfig config_;
  // Raw draw taken in BeginIteration; resolved against the task count at
  // Probabilities time. Stored as a value, not a stream pointer — the
  // stream dies with the iteration.
  std::optional<std::uint64_t> nomination_draw_;
  // Success rate per task slot at the previous scheduling decision; tasks
  // beyond the recorded size (newly added) score maximal progress.
  std::vector<double> prev_success_;
};

}  // namespace pafeat

#endif  // PAFEAT_CORE_SITP_H_
