#ifndef KDDN_TESTS_TESTING_INFERENCE_ENGINE_TEST_PEER_H_
#define KDDN_TESTS_TESTING_INFERENCE_ENGINE_TEST_PEER_H_

#include <cstddef>
#include <mutex>

#include "serve/inference_engine.h"

namespace kddn::serve {

/// Holds an InferenceEngine's batcher for a test. While held, the batcher
/// takes nothing off the queue, so a test builds an exact queue — filled to
/// max_queue, aged past deadline_ms, or lined up as batches of known sizes —
/// before anything is scored, instead of racing the batcher with a timer.
/// Destroying the engine drains the queue whether or not it is held.
class InferenceEngineTestPeer {
 public:
  static void Hold(InferenceEngine* engine) {
    std::lock_guard<std::mutex> lock(engine->queue_mutex_);
    engine->held_ = true;
  }

  static void Release(InferenceEngine* engine) {
    {
      std::lock_guard<std::mutex> lock(engine->queue_mutex_);
      engine->held_ = false;
    }
    engine->queue_cv_.notify_all();
  }

  static size_t Queued(InferenceEngine* engine) {
    std::lock_guard<std::mutex> lock(engine->queue_mutex_);
    return engine->queue_.size();
  }
};

}  // namespace kddn::serve

#endif  // KDDN_TESTS_TESTING_INFERENCE_ENGINE_TEST_PEER_H_
