#include "serve/inference_engine.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/check.h"
#include "common/fault_injector.h"
#include "common/job_executor.h"
#include "common/job_graph.h"
#include "common/trace.h"
#include "text/tokenizer.h"

namespace kddn::serve {

namespace {

/// Word-side preprocessing, mirroring data::MortalityDataset exactly:
/// tokenize → lemmatize → stop-word filter (§VII-B1).
std::vector<std::string> PreprocessWords(const std::string& raw,
                                         const text::Lemmatizer& lemmatizer,
                                         const text::StopwordList& stopwords) {
  return stopwords.Filter(lemmatizer.LemmatizeAll(text::TokenizeWords(raw)));
}

void TruncateIds(std::vector<int>* ids, int limit) {
  if (static_cast<int>(ids->size()) > limit) {
    ids->resize(static_cast<size_t>(limit));
  }
}

}  // namespace

const char* ShedReasonName(ShedReason reason) {
  switch (reason) {
    case ShedReason::kNone:
      return "none";
    case ShedReason::kQueueFull:
      return "queue-full";
    case ShedReason::kDeadlineExceeded:
      return "deadline-exceeded";
  }
  return "unknown";
}

InferenceEngine::InferenceEngine(const FrozenModel* model,
                                 const EngineOptions& options)
    : InferenceEngine(
          std::shared_ptr<const FrozenModel>(model,
                                             [](const FrozenModel*) {}),
          options) {}

InferenceEngine::InferenceEngine(const FrozenModel* model,
                                 const NotePipeline& pipeline,
                                 const EngineOptions& options)
    : InferenceEngine(
          std::shared_ptr<const FrozenModel>(model,
                                             [](const FrozenModel*) {}),
          pipeline, options) {}

InferenceEngine::InferenceEngine(std::shared_ptr<const FrozenModel> model,
                                 const EngineOptions& options)
    : model_(std::move(model)),
      options_(options),
      deadline_shed_(std::make_exception_ptr(ShedError(
          ShedReason::kDeadlineExceeded,
          "request shed: queued longer than deadline_ms=" +
              std::to_string(options.deadline_ms)))) {
  KDDN_CHECK(model_ != nullptr);
  KDDN_CHECK_GT(options_.max_batch, 0) << "max_batch must be positive";
  KDDN_CHECK_GE(options_.cache_capacity, 0) << "cache_capacity must be >= 0";
  KDDN_CHECK_GE(options_.max_queue, 0)
      << "max_queue must be >= 0 (0 = unbounded)";
  KDDN_CHECK_GE(options_.deadline_ms, 0)
      << "deadline_ms must be >= 0 (0 = no deadline)";
  worker_ = std::thread([this] { WorkerLoop(); });
}

InferenceEngine::InferenceEngine(std::shared_ptr<const FrozenModel> model,
                                 const NotePipeline& pipeline,
                                 const EngineOptions& options)
    : InferenceEngine(std::move(model), options) {
  KDDN_CHECK(pipeline.word_vocab != nullptr);
  KDDN_CHECK(pipeline.concept_vocab != nullptr);
  KDDN_CHECK(pipeline.extractor != nullptr);
  has_pipeline_ = true;
  pipeline_ = pipeline;
  if (options_.cache_capacity > 0) {
    concept_cache_ = std::make_unique<LruCache<uint64_t, std::vector<int>>>(
        static_cast<size_t>(options_.cache_capacity));
  }
}

InferenceEngine::~InferenceEngine() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (worker_.joinable()) {
    worker_.join();
  }
}

float InferenceEngine::Score(const data::Example& example) {
  return ScoreAsync(example).get().score;
}

std::shared_ptr<const FrozenModel> InferenceEngine::active() const {
  std::lock_guard<std::mutex> lock(model_mutex_);
  return model_;
}

uint64_t InferenceEngine::active_fingerprint() const {
  std::lock_guard<std::mutex> lock(model_mutex_);
  return model_->fingerprint();
}

std::shared_ptr<const FrozenModel> InferenceEngine::SwapModel(
    std::shared_ptr<const FrozenModel> model) {
  KDDN_CHECK(model != nullptr) << "cannot publish a null snapshot";
  std::lock_guard<std::mutex> lock(model_mutex_);
  std::shared_ptr<const FrozenModel> previous = std::move(model_);
  model_ = std::move(model);
  return previous;
}

std::future<Scored> InferenceEngine::ScoreAsync(
    data::Example example, std::function<void()> on_done) {
  auto request = std::make_unique<Request>();
  request->example = std::move(example);
  request->enqueued = std::chrono::steady_clock::now();
  if (on_done) {
    request->on_done = std::move(on_done);
  }
  std::future<Scored> future = request->promise.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    KDDN_CHECK(!stopping_) << "ScoreAsync after engine shutdown";
    if (options_.max_queue > 0 &&
        static_cast<int>(queue_.size()) >= options_.max_queue) {
      // Shed at the door: refusing now bounds both memory and the latency of
      // every request already queued.
      stats_.RecordShed();
      throw ShedError(ShedReason::kQueueFull,
                      "request shed: queue is at max_queue=" +
                          std::to_string(options_.max_queue));
    }
    queue_.push_back(std::move(request));
  }
  queue_cv_.notify_all();
  return future;
}

ScoreResult InferenceEngine::TryScore(const data::Example& example) {
  try {
    return ScoreResult{Score(example), ShedReason::kNone};
  } catch (const ShedError& error) {
    return ScoreResult{0.0f, error.reason()};
  }
}

float InferenceEngine::ScoreNote(const std::string& raw_text) {
  return Score(EncodeNote(raw_text));
}

ScoreResult InferenceEngine::TryScoreNote(const std::string& raw_text) {
  try {
    return ScoreResult{ScoreNote(raw_text), ShedReason::kNone};
  } catch (const ShedError& error) {
    return ScoreResult{0.0f, error.reason()};
  }
}

data::Example InferenceEngine::EncodeNote(const std::string& raw_text) {
  bool degraded = false;
  return EncodeNote(raw_text, &degraded);
}

data::Example InferenceEngine::EncodeNote(const std::string& raw_text,
                                          bool* degraded) {
  KDDN_TRACE_SPAN("serve.encode");
  KDDN_CHECK(has_pipeline_)
      << "EncodeNote requires an engine constructed with a NotePipeline";
  *degraded = false;
  data::Example example;
  example.word_ids = pipeline_.word_vocab->Encode(
      PreprocessWords(raw_text, lemmatizer_, stopwords_));
  TruncateIds(&example.word_ids, pipeline_.options.max_words);

  const uint64_t key = kb::NoteFingerprint(raw_text);
  if (concept_cache_ != nullptr) {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (const std::vector<int>* hit = concept_cache_->Get(key)) {
      example.concept_ids = *hit;
      stats_.RecordCacheHit();
      return example;
    }
  }
  stats_.RecordCacheMiss();
  try {
    KDDN_FAULT_POINT("serve.encode.extract");
    example.concept_ids = pipeline_.concept_vocab->Encode(
        kb::ConceptExtractor::CuiSequence(pipeline_.extractor->Extract(
            raw_text, pipeline_.options.extraction)));
    TruncateIds(&example.concept_ids, pipeline_.options.max_concepts);
    if (concept_cache_ != nullptr) {
      std::lock_guard<std::mutex> lock(cache_mutex_);
      concept_cache_->Put(key, example.concept_ids);
    }
  } catch (const std::exception&) {
    // Degrade rather than fail: the request is still served from the text
    // branch with a <pad> concept row (never cached, so a recovered
    // extractor serves the real concepts on the next miss).
    stats_.RecordDegraded();
    *degraded = true;
    example.concept_ids = {text::Vocabulary::kPadId};
  }
  return example;
}

void InferenceEngine::WorkerLoop() {
  while (true) {
    std::vector<std::unique_ptr<Request>> batch;
    std::vector<std::unique_ptr<Request>> expired;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return stopping_ || (!held_ && !queue_.empty());
      });
      if (queue_.empty()) {
        return;  // stopping_ with a drained queue.
      }
      // Pop up to max_batch live requests; anything already past its
      // per-request deadline is set aside to be shed (it consumes no batch
      // slot — stale work must not crowd out fresh work).
      const auto now = std::chrono::steady_clock::now();
      while (!queue_.empty() &&
             static_cast<int>(batch.size()) < options_.max_batch) {
        std::unique_ptr<Request> request = std::move(queue_.front());
        queue_.pop_front();
        if (options_.deadline_ms > 0 &&
            now - request->enqueued >
                std::chrono::milliseconds(options_.deadline_ms)) {
          expired.push_back(std::move(request));
        } else {
          batch.push_back(std::move(request));
        }
      }
    }
    for (std::unique_ptr<Request>& request : expired) {
      stats_.RecordTimeout();
      request->promise.set_exception(deadline_shed_);
      request->on_done();
    }
    if (!batch.empty()) {
      ExecuteBatch(std::move(batch));
    }
  }
}

std::unique_ptr<FrozenModel::Workspace> InferenceEngine::AcquireWorkspace() {
  {
    std::lock_guard<std::mutex> lock(workspace_mutex_);
    if (!workspaces_.empty()) {
      std::unique_ptr<FrozenModel::Workspace> ws =
          std::move(workspaces_.back());
      workspaces_.pop_back();
      return ws;
    }
  }
  return std::make_unique<FrozenModel::Workspace>();
}

void InferenceEngine::ReleaseWorkspace(
    std::unique_ptr<FrozenModel::Workspace> ws) {
  std::lock_guard<std::mutex> lock(workspace_mutex_);
  workspaces_.push_back(std::move(ws));
}

void InferenceEngine::ExecuteBatch(
    std::vector<std::unique_ptr<Request>> batch) {
  KDDN_TRACE_SPAN("serve.batch_execute");
  // Pin the snapshot for the whole batch (the RCU read side): a SwapModel
  // that lands mid-batch affects only later batches, and the shared_ptr
  // keeps this snapshot alive until the batch is done even if the registry
  // has already dropped it. Every result is tagged with the pinned
  // snapshot's fingerprint — not whatever is active at completion time.
  const std::shared_ptr<const FrozenModel> model = active();
  // One job per request (DESIGN.md §14): it borrows an engine-owned
  // Workspace, so scores are independent of batch composition and thread
  // count, and resolves its own promise, so a failure fails only its own.
  jobs::JobGraph graph;
  for (std::unique_ptr<Request>& request : batch) {
    graph.AddJob("serve.job.score", [&] {
      try {
        KDDN_TRACE_SPAN("serve.score");
        KDDN_FAULT_POINT("serve.score");
        std::unique_ptr<FrozenModel::Workspace> ws = AcquireWorkspace();
        const float score = model->ScorePositive(request->example, ws.get());
        ReleaseWorkspace(std::move(ws));
        stats_.RecordRequestLatencyMs(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - request->enqueued)
                .count());
        request->promise.set_value(Scored{score, model->fingerprint()});
      } catch (...) {
        request->promise.set_exception(std::current_exception());
      }
      request->on_done();
    });
  }
  graph.Finalize();
  // Count the batch before any job can resolve a promise: a client woken by
  // its future must already see this batch in the stats.
  stats_.RecordBatch(static_cast<int>(batch.size()));
  jobs::GlobalExecutor().Run(&graph);
}

}  // namespace kddn::serve
