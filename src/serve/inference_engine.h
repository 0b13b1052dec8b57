#ifndef KDDN_SERVE_INFERENCE_ENGINE_H_
#define KDDN_SERVE_INFERENCE_ENGINE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "data/dataset.h"
#include "kb/concept_extractor.h"
#include "serve/frozen_model.h"
#include "serve/lru_cache.h"
#include "serve/stats.h"
#include "text/lemmatizer.h"
#include "text/stopwords.h"
#include "text/vocabulary.h"

namespace kddn::serve {

/// Micro-batching and admission-control knobs. All values are validated at
/// engine construction: nonsensical settings (zero/negative max_batch,
/// negative deadlines, negative capacities) throw KddnError immediately
/// instead of misbehaving under load.
struct EngineOptions {
  /// Most requests one batch takes off the queue; the batcher never waits
  /// for a batch to fill.
  int max_batch = 16;
  /// Concept-extraction LRU entries (ScoreNote path); 0 disables the cache.
  int cache_capacity = 1024;
  /// Admission control: maximum requests waiting in the queue. An arrival
  /// beyond this bound is shed immediately (ShedReason::kQueueFull) instead
  /// of growing the backlog without limit. 0 = unbounded (no shedding).
  int max_queue = 0;
  /// Per-request deadline, measured from enqueue: a request still queued
  /// past this many milliseconds is shed (ShedReason::kDeadlineExceeded)
  /// when the batcher reaches it, rather than burning batch capacity on an
  /// answer the caller has stopped waiting for. 0 = no deadline.
  int deadline_ms = 0;
};

/// Why admission control refused or abandoned a request.
enum class ShedReason {
  kNone = 0,
  kQueueFull,          // Rejected at enqueue: queue was at max_queue.
  kDeadlineExceeded,   // Abandoned in queue: older than deadline_ms.
};

const char* ShedReasonName(ShedReason reason);

/// Thrown by the throwing Score APIs when a request is shed. Subclasses
/// KddnError so existing catch sites keep working; callers that want to
/// branch on the cause can catch ShedError and read reason().
class ShedError : public KddnError {
 public:
  ShedError(ShedReason reason, const std::string& what)
      : KddnError(what), reason_(reason) {}

  ShedReason reason() const { return reason_; }

 private:
  ShedReason reason_;
};

/// expected-style outcome for the non-throwing Try* APIs: either a score or
/// the reason the request was shed.
struct ScoreResult {
  float score = 0.0f;
  ShedReason shed = ShedReason::kNone;

  bool ok() const { return shed == ShedReason::kNone; }
};

/// A score bundled with the fingerprint of the snapshot that produced it.
/// Under hot-swap the active snapshot can change between enqueue and
/// execution, so the only authoritative "which model scored this request" is
/// the one recorded by the batch that ran it — every HTTP response carries
/// this fingerprint (DESIGN.md §13).
struct Scored {
  float score = 0.0f;
  uint64_t fingerprint = 0;
};

/// Preprocessing assets for raw-text scoring — the same pipeline
/// data::MortalityDataset applies at training time (tokenize → lemmatize →
/// stop-word filter → encode on the word side; cached MetaMap-style
/// extraction → encode on the concept side). All pointers are borrowed and
/// must outlive the engine.
struct NotePipeline {
  const text::Vocabulary* word_vocab = nullptr;
  const text::Vocabulary* concept_vocab = nullptr;
  const kb::ConceptExtractor* extractor = nullptr;
  /// max_words / max_concepts truncation and extraction knobs; must match
  /// the options the vocabularies were built with.
  data::DatasetOptions options;
};

/// Batched, thread-safe serving front-end over a FrozenModel. Requests from
/// any number of client threads queue on an internal worker; whenever it is
/// free the worker takes whatever is queued, up to `max_batch`, and runs one
/// job per request on the process-wide job executor (engine-owned
/// Workspaces, disjoint outputs).
///
/// Scores are bitwise identical to the single-example autograd path for
/// every batch composition and thread count — batching changes scheduling,
/// never arithmetic (each document keeps its own ragged-shape forward).
///
/// Overload safety: with max_queue / deadline_ms set, the engine sheds
/// rather than queues unboundedly — over-limit arrivals are refused at the
/// door, stale requests are dropped unscored, and both outcomes are counted
/// in stats() and surfaced to the caller as ShedError (throwing APIs) or a
/// not-ok ScoreResult (Try* APIs).
///
/// Hot-swap (DESIGN.md §13): the active snapshot is a shared_ptr published
/// RCU-style — SwapModel() installs a new snapshot atomically with respect
/// to batch execution. Each batch pins the snapshot that was active when it
/// started; in-flight batches finish on their pinned snapshot while new
/// requests pick up the new one, so a swap never blocks scoring and no
/// request ever sees a half-installed model. Results are tagged with the
/// fingerprint of the snapshot that actually scored them.
class InferenceEngine {
 public:
  /// Engine without a raw-text pipeline: Score/ScoreAsync only. The raw
  /// pointer is borrowed and must outlive the engine (and any snapshot that
  /// batches may still be pinning after a later SwapModel).
  explicit InferenceEngine(const FrozenModel* model,
                           const EngineOptions& options = {});

  /// Engine that can also serve raw notes end to end (ScoreNote).
  InferenceEngine(const FrozenModel* model, const NotePipeline& pipeline,
                  const EngineOptions& options = {});

  /// Owning variants for hot-swap deployments: the engine (and in-flight
  /// batches) keep the snapshot alive via shared ownership, typically shared
  /// with a SnapshotRegistry that can roll back to it later.
  explicit InferenceEngine(std::shared_ptr<const FrozenModel> model,
                           const EngineOptions& options = {});
  InferenceEngine(std::shared_ptr<const FrozenModel> model,
                  const NotePipeline& pipeline,
                  const EngineOptions& options = {});

  /// Flushes the queue (pending requests are still scored) and joins the
  /// worker.
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Blocking score of one encoded example (positive-class probability).
  /// Safe to call from any thread; the call participates in batching.
  /// Throws ShedError if admission control refuses (queue full) or abandons
  /// (deadline exceeded) the request.
  float Score(const data::Example& example);

  /// Asynchronous variant; the future resolves when the request is scored,
  /// carrying the score and the fingerprint of the snapshot that produced
  /// it. Throws ShedError immediately when the queue is at max_queue; a
  /// deadline shed or a failed score surfaces on the future. `on_done`, if
  /// set, runs right after the future resolves, on the thread resolving it.
  std::future<Scored> ScoreAsync(data::Example example,
                                 std::function<void()> on_done = nullptr);

  /// Non-throwing variant of Score for callers that prefer branching over
  /// catching: a shed request comes back as a ScoreResult with ok() == false
  /// and the reason set. Non-admission failures still throw.
  ScoreResult TryScore(const data::Example& example);

  /// Raw clinical note in, mortality probability out: runs the training-time
  /// preprocessing pipeline (concept extraction served from the LRU cache),
  /// then scores through the batch queue. Notes with no in-vocabulary words
  /// or no extracted concepts are scored as a single <pad> token on the
  /// affected branch, so every input — empty, punctuation-only, stop-word
  /// -only, or fully OOV — returns a well-defined probability. If concept
  /// extraction itself fails, the request degrades instead of erroring: the
  /// text branch is scored against a <pad> concept row and the degraded
  /// counter in stats() ticks. Throws ShedError under admission control like
  /// Score.
  float ScoreNote(const std::string& raw_text);

  /// Non-throwing variant of ScoreNote (see TryScore).
  ScoreResult TryScoreNote(const std::string& raw_text);

  /// Preprocesses a raw note to a model-ready example (ScoreNote's first
  /// half). Requires a NotePipeline.
  data::Example EncodeNote(const std::string& raw_text);

  /// EncodeNote variant that reports whether the request degraded (concept
  /// extraction failed and the concept side fell back to a <pad> row). The
  /// HTTP layer surfaces this per response as the "degraded" flag.
  data::Example EncodeNote(const std::string& raw_text, bool* degraded);

  /// True when the engine can serve raw notes (constructed with a
  /// NotePipeline); the HTTP front-end answers 501 on /v1/score otherwise.
  bool has_pipeline() const { return has_pipeline_; }

  /// Serving counters (latency percentiles, batch histogram, cache rates).
  StatsSnapshot stats() const { return stats_.Snapshot(); }

  /// The currently-published snapshot. The returned shared_ptr keeps it
  /// alive even if a swap lands immediately after, so callers can safely
  /// read name()/fingerprint()/score through it.
  std::shared_ptr<const FrozenModel> active() const;

  /// Fingerprint of the currently-published snapshot.
  uint64_t active_fingerprint() const;

  /// Atomically publishes `model` as the active snapshot and returns the
  /// snapshot it replaced. Requests already batched keep scoring on the old
  /// snapshot (their responses carry its fingerprint); requests batched
  /// after the publish score on the new one. Never blocks on in-flight
  /// scoring. Prefer driving this through SnapshotRegistry::Swap, which
  /// health-gates the candidate first.
  std::shared_ptr<const FrozenModel> SwapModel(
      std::shared_ptr<const FrozenModel> model);

 private:
  friend class InferenceEngineTestPeer;

  struct Request {
    data::Example example;
    std::promise<Scored> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::function<void()> on_done = [] {};
  };

  void WorkerLoop();
  /// Scores one batch on the process-wide executor, one job per request.
  void ExecuteBatch(std::vector<std::unique_ptr<Request>> batch);
  /// Takes the most recently released Workspace (a new one if none is free)
  /// / hands one back. Workspaces belong to the engine, not to threads, so a
  /// workspace warmed by one score job stays warm for the next whichever
  /// lane runs it: warm serving allocates no tensor storage under any
  /// schedule.
  std::unique_ptr<FrozenModel::Workspace> AcquireWorkspace();
  void ReleaseWorkspace(std::unique_ptr<FrozenModel::Workspace> ws);

  /// Published-snapshot cell. A mutex (not std::atomic<shared_ptr>) because
  /// it is touched once per batch / swap, never per request.
  mutable std::mutex model_mutex_;
  std::shared_ptr<const FrozenModel> model_;
  EngineOptions options_;
  /// Every deadline shed's ShedError, built once and freed only after the
  /// worker is joined, so no client's reason() races the free.
  const std::exception_ptr deadline_shed_;
  bool has_pipeline_ = false;
  NotePipeline pipeline_;
  text::Lemmatizer lemmatizer_;
  text::StopwordList stopwords_;

  Stats stats_;

  std::mutex cache_mutex_;
  std::unique_ptr<LruCache<uint64_t, std::vector<int>>> concept_cache_;

  std::mutex workspace_mutex_;
  std::vector<std::unique_ptr<FrozenModel::Workspace>> workspaces_;  // LIFO.

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<Request>> queue_;
  bool stopping_ = false;
  bool held_ = false;  // Set by InferenceEngineTestPeer: leave the queue.
  std::thread worker_;
};

}  // namespace kddn::serve

#endif  // KDDN_SERVE_INFERENCE_ENGINE_H_
