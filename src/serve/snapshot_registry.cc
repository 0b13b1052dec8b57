#include "serve/snapshot_registry.h"

#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/job_executor.h"
#include "serve/json_util.h"

namespace kddn::serve {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

const char* SwapCodeName(SwapCode code) {
  switch (code) {
    case SwapCode::kPublished:
      return "published";
    case SwapCode::kAlreadyActive:
      return "already-active";
    case SwapCode::kUnknownFingerprint:
      return "unknown-fingerprint";
    case SwapCode::kChecksumMismatch:
      return "checksum-mismatch";
    case SwapCode::kGoldenMismatch:
      return "golden-mismatch";
  }
  return "unknown";
}

std::string RegistrySnapshot::ToJson() const {
  std::ostringstream out;
  out << "{\"active_fingerprint\": \"" << FingerprintToHex(active_fingerprint)
      << "\", \"previous_fingerprint\": \""
      << FingerprintToHex(previous_fingerprint)
      << "\", \"snapshot_count\": " << snapshot_count
      << ", \"in_probation\": " << (in_probation ? "true" : "false")
      << ", \"swaps\": " << swaps << ", \"rejected\": " << rejected
      << ", \"rollbacks\": " << rollbacks
      << ", \"last_rollback_ms\": " << DoubleToJson(last_rollback_ms) << "}";
  return out.str();
}

SnapshotRegistry::SnapshotRegistry(InferenceEngine* engine,
                                   const SwapPolicy& policy)
    : engine_(engine), policy_(policy) {
  KDDN_CHECK(engine_ != nullptr);
  KDDN_CHECK_GT(policy_.probation_requests, 0)
      << "probation_requests must be positive";
  KDDN_CHECK_GT(policy_.min_probation_samples, 0)
      << "min_probation_samples must be positive";
  KDDN_CHECK_GE(policy_.max_failure_rate, 0.0)
      << "max_failure_rate must be >= 0";
  // The incumbent is registered so rollback targets and /v1/stats have a
  // complete picture; it carries no golden scores (live traffic proved it).
  std::shared_ptr<const FrozenModel> incumbent = engine_->active();
  const uint64_t fingerprint = incumbent->fingerprint();
  snapshots_[fingerprint] = Entry{std::move(incumbent), {}};
}

void SnapshotRegistry::SetGoldenExamples(
    std::vector<data::Example> examples) {
  std::lock_guard<std::mutex> lock(mutex_);
  golden_examples_ = std::move(examples);
}

uint64_t SnapshotRegistry::Add(FrozenModel snapshot,
                               std::vector<float> golden_scores) {
  auto shared = std::make_shared<const FrozenModel>(std::move(snapshot));
  const uint64_t fingerprint = shared->fingerprint();
  std::lock_guard<std::mutex> lock(mutex_);
  KDDN_CHECK(golden_scores.empty() ||
             golden_scores.size() == golden_examples_.size())
      << "golden_scores must match the golden example set (or be empty)";
  snapshots_[fingerprint] = Entry{std::move(shared), std::move(golden_scores)};
  return fingerprint;
}

bool SnapshotRegistry::Has(uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshots_.count(fingerprint) > 0;
}

SwapOutcome SnapshotRegistry::CheckCandidate(const Entry& entry) const {
  SwapOutcome outcome;
  if (policy_.verify_checksum && !entry.model->VerifyChecksum()) {
    outcome.code = SwapCode::kChecksumMismatch;
    outcome.message = "snapshot blob does not match its fingerprint";
    return outcome;
  }
  // Canary self-check: the candidate must reproduce, bitwise, the scores its
  // producer recorded offline for the shared golden notes. Scored as jobs on
  // the process-wide executor, one note per job with its own Workspace, not
  // through the batch queue: the calling thread drives a lane and can finish
  // alone, so the gate cannot deadlock on a saturated engine. The scores are
  // compared in note order, so the mismatch reported is the first one.
  if (!entry.golden_scores.empty()) {
    std::vector<float> scores(golden_examples_.size());
    jobs::GlobalExecutor().ParallelForBlocked(
        "serve.job.golden", static_cast<int64_t>(scores.size()),
        /*min_block=*/1, [&](int64_t begin, int64_t end) {
          FrozenModel::Workspace ws;
          for (int64_t i = begin; i < end; ++i) {
            scores[i] = entry.model->ScorePositive(golden_examples_[i], &ws);
          }
        });
    for (size_t i = 0; i < scores.size(); ++i) {
      const float got = scores[i];
      if (got != entry.golden_scores[i]) {
        outcome.code = SwapCode::kGoldenMismatch;
        std::ostringstream message;
        message << "golden note " << i << " scored " << FloatToJson(got)
                << ", offline reference says "
                << FloatToJson(entry.golden_scores[i]);
        outcome.message = message.str();
        return outcome;
      }
    }
  } else {
    outcome.message = "no golden scores registered; canary stage skipped";
  }
  outcome.code = SwapCode::kPublished;
  return outcome;
}

SwapOutcome SnapshotRegistry::Swap(uint64_t fingerprint) {
  const Clock::time_point start = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  SwapOutcome outcome;
  const auto it = snapshots_.find(fingerprint);
  if (it == snapshots_.end()) {
    outcome.code = SwapCode::kUnknownFingerprint;
    outcome.message = "no snapshot with fingerprint " +
                      FingerprintToHex(fingerprint) + " is registered";
    outcome.active_fingerprint = engine_->active_fingerprint();
    outcome.swap_ms = MsSince(start);
    ++rejected_;
    return outcome;
  }
  if (fingerprint == engine_->active_fingerprint()) {
    outcome.code = SwapCode::kAlreadyActive;
    outcome.message = "snapshot is already active";
    outcome.active_fingerprint = fingerprint;
    outcome.swap_ms = MsSince(start);
    return outcome;
  }
  outcome = CheckCandidate(it->second);
  if (!outcome.published()) {
    outcome.active_fingerprint = engine_->active_fingerprint();
    outcome.swap_ms = MsSince(start);
    ++rejected_;
    return outcome;
  }
  // Publish. The baseline snapshot of the engine counters is taken just
  // before the swap so probation measures only post-publish traffic.
  probation_baseline_ = engine_->stats();
  previous_ = engine_->SwapModel(it->second.model);
  in_probation_ = true;
  ++swaps_;
  outcome.active_fingerprint = fingerprint;
  outcome.swap_ms = MsSince(start);
  return outcome;
}

bool SnapshotRegistry::PollProbation() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!in_probation_) {
    return false;
  }
  const StatsSnapshot now = engine_->stats();
  const int64_t samples = SamplesOf(now) - SamplesOf(probation_baseline_);
  const int64_t failures = FailuresOf(now) - FailuresOf(probation_baseline_);
  if (samples < policy_.min_probation_samples) {
    return false;
  }
  const double failure_rate =
      static_cast<double>(failures) / static_cast<double>(samples);
  if (failure_rate > policy_.max_failure_rate) {
    // Budget breach: republish the previous snapshot, unconditionally (no
    // health gate on the emergency path — it already carried live traffic).
    const Clock::time_point start = Clock::now();
    KDDN_CHECK(previous_ != nullptr) << "probation without a rollback target";
    engine_->SwapModel(previous_);
    last_rollback_ms_ = MsSince(start);
    in_probation_ = false;
    ++rollbacks_;
    ++swaps_;
    return true;
  }
  if (samples >= policy_.probation_requests) {
    in_probation_ = false;  // Survived probation; the candidate is steady.
  }
  return false;
}

RegistrySnapshot SnapshotRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RegistrySnapshot snap;
  snap.active_fingerprint = engine_->active_fingerprint();
  snap.previous_fingerprint =
      previous_ == nullptr ? 0 : previous_->fingerprint();
  snap.snapshot_count = static_cast<int>(snapshots_.size());
  snap.in_probation = in_probation_;
  snap.swaps = swaps_;
  snap.rejected = rejected_;
  snap.rollbacks = rollbacks_;
  snap.last_rollback_ms = last_rollback_ms_;
  return snap;
}

}  // namespace kddn::serve
