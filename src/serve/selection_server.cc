#include "serve/selection_server.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "nn/workspace.h"
#include "rl/fs_env.h"

namespace pafeat {

namespace {

using SteadyClock = std::chrono::steady_clock;

double MicrosBetween(SteadyClock::time_point from, SteadyClock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

const char* AdmissionStatusName(AdmissionStatus status) {
  switch (status) {
    case AdmissionStatus::kOk:
      return "ok";
    case AdmissionStatus::kQueueFull:
      return "queue-full";
    case AdmissionStatus::kBadRequest:
      return "bad-request";
    case AdmissionStatus::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

SelectionServer::SelectionServer(const AgentCheckpoint& checkpoint,
                                 const ServerConfig& config)
    : config_(config),
      max_live_(std::min(config.max_batch, config.max_queue)) {
  PF_CHECK_GT(config_.max_batch, 0);
  PF_CHECK_GT(config_.max_queue, 0);

  std::string error;
  current_ = BuildBundle(checkpoint, &error);
  PF_CHECK(current_ != nullptr)
      << "internally inconsistent checkpoint: " << error;
  current_->version = publish_seq_;
  stats_.net_version = applied_seq_;

  // Every container the serving plane touches is sized here, once; the
  // steady state recycles slots and scratch without further allocation.
  slots_.resize(config_.max_queue);
  free_.reserve(config_.max_queue);
  for (int s = config_.max_queue - 1; s >= 0; --s) free_.push_back(s);
  queue_ring_.resize(config_.max_queue, -1);
  live_.resize(max_live_, -1);
  finished_scratch_.resize(max_live_, -1);
  // No step is wider than max_live_ = min(max_batch, max_queue), so the
  // step scratch and the width histogram are sized by it.
  batch_.resize(BatchFloats());
  q_.resize(static_cast<std::size_t>(max_live_) * kNumActions);
  stats_.batch_width_hist.assign(static_cast<std::size_t>(max_live_) + 1, 0);

  loop_.Start([this] { ServeLoop(); });
}

SelectionServer::~SelectionServer() { Shutdown(); }

std::unique_ptr<SelectionServer::NetBundle> SelectionServer::BuildBundle(
    const AgentCheckpoint& checkpoint, std::string* error) const {
  const std::string inconsistency = CheckpointConsistencyError(checkpoint);
  if (!inconsistency.empty()) {
    if (error != nullptr) *error = inconsistency;
    return nullptr;
  }
  auto bundle = std::make_unique<NetBundle>();
  Rng rng(0);
  bundle->net = std::make_unique<DuelingNet>(checkpoint.net_config, &rng);
  PF_CHECK(bundle->net->DeserializeParams(checkpoint.parameters));
  bundle->max_feature_ratio = checkpoint.max_feature_ratio;
  bundle->num_features = (checkpoint.net_config.input_dim - 3) / 2;
  return bundle;
}

SelectionResponse SelectionServer::Select(
    const std::vector<float>& representation, double max_feature_ratio) {
  SelectionResponse response;
  std::unique_lock<std::mutex> lock(mutex_);
  if (shutdown_) {
    ++stats_.rejected_shutdown;
    response.status = AdmissionStatus::kShutdown;
    return response;
  }
  // Validate against the network that will admit this request: the pending
  // bundle when a swap is queued (admission resumes only after it applies),
  // else the one serving now.
  const NetBundle& admitting = pending_ != nullptr ? *pending_ : *current_;
  if (static_cast<int>(representation.size()) != admitting.num_features ||
      max_feature_ratio > 1.0 || max_feature_ratio < 0.0) {
    ++stats_.rejected_bad_request;
    response.status = AdmissionStatus::kBadRequest;
    return response;
  }
  if (free_.empty()) {
    ++stats_.rejected_queue_full;
    response.status = AdmissionStatus::kQueueFull;
    return response;
  }

  const int slot_index = free_.back();
  free_.pop_back();
  RequestSlot& slot = slots_[slot_index];
  slot.representation = representation.data();
  slot.m = static_cast<int>(representation.size());
  slot.max_feature_ratio = max_feature_ratio;
  slot.status = AdmissionStatus::kOk;
  slot.done = false;
  slot.net_version = 0;
  slot.joined_batch_width = 0;
  slot.enqueued_at = SteadyClock::now();
  queue_ring_[(queue_head_ + queued_count_) % config_.max_queue] = slot_index;
  ++queued_count_;
  ++stats_.admitted;
  work_cv_.notify_one();

  done_cv_.wait(lock, [&] { return slots_[slot_index].done; });

  response.status = slot.status;
  if (slot.status == AdmissionStatus::kOk) {
    response.mask = slot.mask;
    response.stats.queue_us = MicrosBetween(slot.enqueued_at, slot.live_at);
    response.stats.compute_us = MicrosBetween(slot.live_at, slot.done_at);
    response.stats.total_us = MicrosBetween(slot.enqueued_at, slot.done_at);
    response.stats.net_version = slot.net_version;
    response.stats.joined_batch_width = slot.joined_batch_width;
  }
  slot.representation = nullptr;
  free_.push_back(slot_index);
  return response;
}

bool SelectionServer::PublishCheckpoint(const AgentCheckpoint& checkpoint,
                                        std::string* error) {
  // Build and validate on the publisher's thread — the serving loop never
  // pays for network construction, only for the pointer swap.
  std::unique_ptr<NetBundle> bundle = BuildBundle(checkpoint, error);
  if (bundle == nullptr) return false;

  std::unique_lock<std::mutex> lock(mutex_);
  if (shutdown_) {
    if (error != nullptr) *error = "server is shut down";
    return false;
  }
  bundle->version = ++publish_seq_;
  const std::uint64_t my_version = bundle->version;
  // Latest publish wins: an unapplied older bundle is simply replaced, and
  // its publisher completes when any version at least as new serves.
  pending_ = std::move(bundle);
  work_cv_.notify_all();
  swap_cv_.wait(lock,
                [&] { return applied_seq_ >= my_version || shutdown_; });
  if (applied_seq_ < my_version) {
    if (error != nullptr) *error = "server shut down before the swap applied";
    return false;
  }
  return true;
}

bool SelectionServer::PublishCheckpointFile(const std::string& path,
                                            std::string* error) {
  const std::optional<AgentCheckpoint> checkpoint =
      LoadCheckpoint(path, error);
  if (!checkpoint.has_value()) return false;
  return PublishCheckpoint(*checkpoint, error);
}

void SelectionServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    paused_ = false;
    work_cv_.notify_all();
    swap_cv_.notify_all();
  }
  loop_.Join();
}

ServerStats SelectionServer::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServerStats snapshot = stats_;
  snapshot.queued_now = queued_count_;
  snapshot.live_now = live_count_;
  return snapshot;
}

int SelectionServer::num_features() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_->num_features;
}

double SelectionServer::max_feature_ratio() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_->max_feature_ratio;
}

std::uint64_t SelectionServer::net_version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return applied_seq_;
}

void SelectionServer::PauseServingForTest() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void SelectionServer::ResumeServingForTest() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = false;
  work_cv_.notify_all();
}

void SelectionServer::ServeLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (paused_ && !shutdown_) {
      work_cv_.wait(lock);
      continue;
    }
    // Swaps apply only between scans: live requests finish on the network
    // that admitted them.
    if (pending_ != nullptr && live_count_ == 0 && !shutdown_) {
      ApplySwapLocked();
    }
    if (shutdown_) {
      if (live_count_ == 0) {
        RejectQueuedLocked();
        break;
      }
      // Live scans drain below before the loop exits.
    } else if (pending_ == nullptr) {
      // Queued requests start at once, even alone: a peer that arrives
      // later joins the live batch at the next step boundary.
      AdmitWaitingLocked();
    }
    if (live_count_ == 0) {
      work_cv_.wait(lock);
      continue;
    }

    const int width = live_count_;
    lock.unlock();
    ServeStep(width);
    lock.lock();
    CommitStepLocked(width);
  }
  // The loop only exits on shutdown; any publisher still waiting sees
  // shutdown_ and fails.
  swap_cv_.notify_all();
}

// The serving plane's steady state: one coalesced greedy-scan step. Every
// buffer below was sized at construction or swap time — this path performs
// no heap allocation and takes no lock.
// analyze: hot-path-root
void SelectionServer::ServeStep(int width) {
  const DuelingNet& net = *current_->net;
  const int row_floats = net.first_layer_width();
  float* batch = batch_.data();
  float* q = q_.data();
  for (int r = 0; r < width; ++r) {
    slots_[live_[r]].scan.EmitFirstLayerRow(
        batch + static_cast<std::size_t>(r) * row_floats);
  }
  // One forward pass decides this step for every coalesced request.
  net.PredictFromFirstLayerInto(width, batch, InferenceArena::ThreadLocal(),
                                q);
  finished_count_ = 0;
  for (int r = 0; r < width; ++r) {
    RequestSlot& slot = slots_[live_[r]];
    slot.scan.ApplyDecision(q + static_cast<std::size_t>(r) * kNumActions);
    if (slot.scan.ScanDone()) {
      slot.scan.FinalizeFallback();
      finished_scratch_[finished_count_++] = r;
    }
  }
}

std::size_t SelectionServer::BatchFloats() const {
  return static_cast<std::size_t>(max_live_) *
         current_->net->first_layer_width();
}

void SelectionServer::ApplySwapLocked() {
  current_ = std::move(pending_);
  applied_seq_ = current_->version;
  ++stats_.swaps_applied;
  stats_.net_version = applied_seq_;
  // A swap may change the first-layer width; the step scratch follows it.
  if (batch_.size() < BatchFloats()) batch_.resize(BatchFloats());
  swap_cv_.notify_all();
}

void SelectionServer::AdmitWaitingLocked() {
  const auto now = SteadyClock::now();
  const int first_new = live_count_;
  while (queued_count_ > 0 && live_count_ < max_live_) {
    const int slot_index = queue_ring_[queue_head_];
    queue_head_ = (queue_head_ + 1) % config_.max_queue;
    --queued_count_;
    RequestSlot& slot = slots_[slot_index];
    // Re-screen against the network actually serving: a hot-swap between
    // enqueue and admission can change the feature count.
    if (slot.m != current_->num_features) {
      ++stats_.rejected_bad_request;
      FinishSlotLocked(slot_index, AdmissionStatus::kBadRequest);
      continue;
    }
    const int obs_dim = 2 * slot.m + 3;
    if (static_cast<int>(slot.observation.size()) != obs_dim) {
      slot.observation.resize(obs_dim);
    }
    if (static_cast<int>(slot.mask.size()) != slot.m) {
      slot.mask.resize(slot.m);
    }
    const DuelingNet* net = current_->net.get();
    if (static_cast<int>(slot.carry.size()) != net->carry_size()) {
      slot.carry.resize(net->carry_size());
    }
    const double ratio = slot.max_feature_ratio > 0.0
                             ? slot.max_feature_ratio
                             : current_->max_feature_ratio;
    // The carry is initialized by the scan's first step, on the serving
    // thread outside the mutex.
    slot.scan.Bind(net, slot.representation, slot.m, ratio,
                   slot.observation.data(), slot.carry.data(), &slot.mask);
    slot.net_version = current_->version;
    slot.live_at = now;
    live_[live_count_++] = slot_index;
  }
  // Every request admitted at this boundary first steps in a batch of the
  // width the boundary ended with.
  for (int r = first_new; r < live_count_; ++r) {
    slots_[live_[r]].joined_batch_width = live_count_;
  }
}

void SelectionServer::CommitStepLocked(int width) {
  ++stats_.steps;
  stats_.step_rows += static_cast<std::uint64_t>(width);
  ++stats_.batch_width_hist[width];
  if (finished_count_ == 0) return;
  const auto now = SteadyClock::now();
  // Retire finished rows, preserving the batch order of survivors (row
  // order never affects results — kernel rows are bit-stable — but a
  // stable live set keeps joined_batch_width and the histogram honest).
  for (int f = 0; f < finished_count_; ++f) {
    const int slot_index = live_[finished_scratch_[f]];
    RequestSlot& slot = slots_[slot_index];
    slot.done_at = now;
    slot.status = AdmissionStatus::kOk;
    slot.done = true;
    stats_.queue_us_sum += MicrosBetween(slot.enqueued_at, slot.live_at);
    stats_.compute_us_sum += MicrosBetween(slot.live_at, now);
    stats_.total_us_sum += MicrosBetween(slot.enqueued_at, now);
    ++stats_.completed;
    live_[finished_scratch_[f]] = -1;
  }
  int kept = 0;
  for (int r = 0; r < width; ++r) {
    if (live_[r] >= 0) live_[kept++] = live_[r];
  }
  live_count_ = kept;
  finished_count_ = 0;
  done_cv_.notify_all();
}

void SelectionServer::RejectQueuedLocked() {
  while (queued_count_ > 0) {
    const int slot_index = queue_ring_[queue_head_];
    queue_head_ = (queue_head_ + 1) % config_.max_queue;
    --queued_count_;
    ++stats_.rejected_shutdown;
    FinishSlotLocked(slot_index, AdmissionStatus::kShutdown);
  }
}

void SelectionServer::FinishSlotLocked(int slot_index,
                                       AdmissionStatus status) {
  RequestSlot& slot = slots_[slot_index];
  slot.status = status;
  slot.done = true;
  done_cv_.notify_all();
}

}  // namespace pafeat
