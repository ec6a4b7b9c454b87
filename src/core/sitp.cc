#include "core/sitp.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace pafeat {

void SitpScheduler::BeginIteration(Rng* stream) {
  // Take the raw draw now (the stream is owned by the running iteration); it
  // resolves to a task nomination in Probabilities, where the task count is
  // known.
  nomination_draw_ = stream->Next();
}

std::vector<double> SitpScheduler::Probabilities(
    const std::vector<SeenTaskRuntime>& tasks) {
  const int n = static_cast<int>(tasks.size());
  PF_CHECK_GT(n, 0);

  // Success rate per task: average recent episode return over the
  // full-feature baseline, clamped to [0, 1]. A task with no episodes yet
  // reads as zero success, which combined with the "new task" progress
  // default below gives it maximal priority.
  std::vector<double> success(n, 0.0);
  for (int k = 0; k < n; ++k) {
    const double p_all =
        std::max(tasks[k].context->full_feature_reward, 1e-6);
    const double rate = tasks[k].AverageRecentReturn() / p_all;
    success[k] = std::min(std::max(rate, 0.0), 1.0);
  }

  // Progress = |Δ success| since the previous scheduling decision: the
  // success-induced signal. Tasks never scored before (including everything
  // on the very first iteration) count as full progress.
  std::vector<double> score(n, 0.0);
  for (int k = 0; k < n; ++k) {
    const bool seen_before = k < static_cast<int>(prev_success_.size()) &&
                             !tasks[k].recent_returns.empty();
    score[k] = seen_before ? std::abs(success[k] - prev_success_[k]) : 1.0;
  }

  // Exploration nomination from the reserved scheduler stream: the draw
  // nominates one task for the bonus.
  if (nomination_draw_.has_value() && config_.exploration_bonus > 0.0) {
    score[*nomination_draw_ % static_cast<std::uint64_t>(n)] +=
        config_.exploration_bonus;
  }
  nomination_draw_.reset();
  prev_success_ = success;
  if (n == 1) return {1.0};

  // Normalize / softmax / min-share floor, mirroring the ITS pipeline
  // (its.cc) so the two schedulers differ only in their scores.
  double score_sum = 0.0;
  for (const double s : score) score_sum += s;
  std::vector<double> normalized(n);
  for (int k = 0; k < n; ++k) {
    normalized[k] = score_sum > 1e-12 ? score[k] / score_sum : 1.0 / n;
  }

  double max_score = normalized[0];
  for (const double s : normalized) max_score = std::max(max_score, s);
  std::vector<double> probabilities(n);
  double total = 0.0;
  for (int k = 0; k < n; ++k) {
    probabilities[k] =
        std::exp((normalized[k] - max_score) / config_.temperature);
    total += probabilities[k];
  }
  for (double& p : probabilities) p /= total;

  const double floor = config_.min_share_of_uniform / n;
  double excess_total = 0.0;
  for (const double p : probabilities) {
    excess_total += std::max(p - floor, 0.0);
  }
  if (excess_total > 1e-12) {
    const double distributable = 1.0 - n * floor;
    for (double& p : probabilities) {
      p = floor + std::max(p - floor, 0.0) / excess_total * distributable;
    }
  }
  return probabilities;
}

}  // namespace pafeat
