// Configurable experiment runner — a CLI over the full pipeline, useful for
// sweeping settings without recompiling:
//
//   ./build/examples/run_experiment --corpus=nursing --model=AK-DDN
//       --horizon=30 --patients=1200 --epochs=6 --embedding-dim=20
//       --filters=50 --seed=42 --save=akddn.ckpt
//
// Flags: --corpus {nursing,rad}, --model (any Table V row name, deep models
// only for --save), --horizon {0,30,365}, --patients, --epochs, --batch,
// --lr, --embedding-dim, --filters, --seed, --save <path>, --load <path>,
// --num_threads (executor lanes; results are bitwise identical at any value),
// --verbose, --serve (BK-DDN/AK-DDN: re-score the test split through a
// frozen snapshot + batched engine and check it against the graph path),
// --serve_batch (engine max_batch, default 16), --trace_out <path> (trace
// the run and write Chrome-trace JSON for ui.perfetto.dev — DESIGN.md §12).
//
// HTTP serving: --http_port <p> (0 = ephemeral) freezes the trained-or-
// loaded snapshot behind the raw-note pipeline and serves POST /v1/score,
// GET /v1/stats and GET /healthz until stdin closes. Admission control via
// --http_max_queue (default 128) and --http_deadline_ms (default 250);
// overload answers 429/503 with Retry-After. --http_auth_token <secret>
// requires `Authorization: Bearer <secret>` on POST /v1/admin/swap (401
// otherwise); /healthz stays unauthenticated for probes. With --http_requests <n> the
// in-process load generator measures the server instead (train, serve, and
// load-test in one process) and exits:
//
//   ./build/examples/run_experiment --model=BK-DDN --epochs=2
//       --http_port=0 --http_requests=200 --http_concurrency=4
//
// Crash safety: --checkpoint_dir <dir> checkpoints the trainer atomically
// every --checkpoint_every epochs (default 1); re-running the same command
// with --resume after an interruption restarts from the last checkpoint and
// produces bitwise-identical weights to the uninterrupted run:
//
//   ./build/examples/run_experiment --model=AK-DDN --epochs=8
//       --checkpoint_dir=ckpt            # killed mid-run...
//   ./build/examples/run_experiment --model=AK-DDN --epochs=8
//       --checkpoint_dir=ckpt --resume   # ...finishes the same run
#include <cstdio>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/experiment.h"
#include "kb/concept_extractor.h"
#include "nn/serialization.h"
#include "serve/frozen_model.h"
#include "serve/http_server.h"
#include "serve/inference_engine.h"
#include "serve/load_gen.h"

int main(int argc, char** argv) {
  using namespace kddn;
  const Flags flags = Flags::Parse(argc, argv);
  SetGlobalThreadPoolSize(flags.GetInt("num_threads", 0));

  // --trace_out=<path> traces the whole run (dataset build, every training
  // phase, serving) and writes Chrome-trace JSON on exit — load the file in
  // https://ui.perfetto.dev or chrome://tracing. See DESIGN.md §12.
  struct TraceWriter {
    std::string path;
    ~TraceWriter() {
      if (path.empty()) {
        return;
      }
      trace::SetEnabled(false);
      if (trace::WriteChromeTrace(path)) {
        std::printf("wrote trace %s (open in https://ui.perfetto.dev)\n",
                    path.c_str());
      } else {
        std::fprintf(stderr, "failed to write trace %s\n", path.c_str());
      }
    }
  } trace_writer{flags.GetString("trace_out", "") == "true"
                     ? "trace.json"
                     : flags.GetString("trace_out", "")};
  if (!trace_writer.path.empty()) {
    trace::SetEnabled(true);
  }

  const std::string corpus = flags.GetString("corpus", "nursing");
  const std::string model_name = flags.GetString("model", "AK-DDN");
  const int horizon_days = flags.GetInt("horizon", 30);
  KDDN_CHECK(horizon_days == 0 || horizon_days == 30 || horizon_days == 365)
      << "--horizon must be 0, 30 or 365";
  const synth::Horizon horizon =
      horizon_days == 0    ? synth::Horizon::kInHospital
      : horizon_days == 30 ? synth::Horizon::kWithin30Days
                           : synth::Horizon::kWithinYear;

  // Corpus.
  kb::KnowledgeBase knowledge = kb::KnowledgeBase::BuildDefault();
  kb::ConceptExtractor extractor(&knowledge);
  synth::CohortConfig cohort_config;
  cohort_config.kind = corpus == "rad" ? synth::CorpusKind::kRad
                                       : synth::CorpusKind::kNursing;
  cohort_config.num_patients = flags.GetInt("patients", 1200);
  cohort_config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  synth::Cohort cohort = synth::Cohort::Generate(cohort_config, knowledge);

  data::DatasetOptions dataset_options;
  dataset_options.max_words = corpus == "rad" ? 256 : 160;
  dataset_options.max_concepts = corpus == "rad" ? 96 : 64;
  data::MortalityDataset dataset =
      data::MortalityDataset::Build(cohort, extractor, dataset_options);
  std::printf("corpus=%s patients=%d train=%zu val=%zu test=%zu\n",
              corpus.c_str(), dataset.num_patients(), dataset.train().size(),
              dataset.validation().size(), dataset.test().size());

  // Feature-based method names run through the shared harness.
  bool is_deep = false;
  for (const char* deep : {"Text CNN", "Concept CNN", "H CNN", "DKGAM",
                           "BK-DDN", "AK-DDN", "GRU"}) {
    is_deep = is_deep || model_name == deep;
  }

  if (!is_deep) {
    core::ExperimentOptions options;
    options.methods = {model_name};
    options.train.epochs = flags.GetInt("epochs", 6);
    options.seed = cohort_config.seed;
    const auto results = core::RunEvaluation(dataset, options);
    std::printf("%s\n",
                core::FormatResultsTable("Results", results).c_str());
    return 0;
  }

  models::ModelConfig model_config;
  model_config.word_vocab_size = dataset.word_vocab().size();
  model_config.concept_vocab_size = dataset.concept_vocab().size();
  model_config.embedding_dim = flags.GetInt("embedding-dim", 20);
  model_config.num_filters = flags.GetInt("filters", 50);
  model_config.seed = cohort_config.seed;
  auto model = core::MakeDeepModel(model_name, model_config);

  if (flags.Has("load")) {
    nn::LoadParametersFromFile(&model->params(),
                               flags.GetString("load", ""));
    std::printf("loaded checkpoint %s\n",
                flags.GetString("load", "").c_str());
  } else {
    core::TrainOptions train_options;
    train_options.epochs = flags.GetInt("epochs", 6);
    train_options.batch_size = flags.GetInt("batch", 32);
    train_options.learning_rate =
        static_cast<float>(flags.GetDouble("lr", 0.08));
    train_options.verbose = flags.GetBool("verbose", false);
    train_options.seed = cohort_config.seed + 1;
    train_options.checkpoint_dir = flags.GetString("checkpoint_dir", "");
    train_options.checkpoint_every = flags.GetInt("checkpoint_every", 1);
    train_options.resume = flags.GetBool("resume", false);
    core::Trainer trainer(train_options);
    trainer.Train(model.get(), dataset.train(), dataset.validation(),
                  horizon);
  }

  const double auc =
      core::Trainer::EvaluateSplit(model.get(), dataset.test(), horizon).auc;
  std::printf("%s test AUC (t<=%d): %.3f\n", model_name.c_str(), horizon_days,
              auc);

  if (flags.Has("save")) {
    const std::string path = flags.GetString("save", "");
    nn::SaveParametersToFile(model->params(), path);
    std::printf("saved checkpoint to %s (%lld weights)\n", path.c_str(),
                static_cast<long long>(model->params().TotalWeights()));
  }

  if (flags.GetBool("serve", false)) {
    KDDN_CHECK(model_name == "BK-DDN" || model_name == "AK-DDN")
        << "--serve requires a dual-network model";
    // Snapshot the trained weights and score the whole test split through
    // the batched engine; the serving AUC must reproduce the graph-path AUC
    // exactly (FrozenModel's bitwise contract).
    const serve::FrozenModel frozen = serve::FrozenModel::Freeze(*model);
    serve::EngineOptions engine_options;
    engine_options.max_batch = flags.GetInt("serve_batch", 16);
    serve::InferenceEngine engine(&frozen, engine_options);
    std::vector<std::future<serve::Scored>> futures;
    futures.reserve(dataset.test().size());
    for (const data::Example& example : dataset.test()) {
      futures.push_back(engine.ScoreAsync(example));
    }
    std::vector<float> scores;
    scores.reserve(futures.size());
    for (std::future<serve::Scored>& future : futures) {
      scores.push_back(future.get().score);
    }
    const double served_auc =
        eval::RocAuc(scores, core::Trainer::Labels(dataset.test(), horizon));
    std::printf("served test AUC (snapshot %016llx): %.3f%s\n",
                static_cast<unsigned long long>(frozen.fingerprint()),
                served_auc,
                served_auc == auc ? " [matches graph path]"
                                  : " [MISMATCH vs graph path]");
    std::printf("serve stats: %s\n", engine.stats().ToJson().c_str());
    KDDN_CHECK_EQ(served_auc, auc)
        << "frozen snapshot diverged from the training graph";
  }

  if (flags.Has("http_port")) {
    KDDN_CHECK(model_name == "BK-DDN" || model_name == "AK-DDN")
        << "--http_port requires a dual-network model";
    const serve::FrozenModel frozen = serve::FrozenModel::Freeze(*model);
    serve::NotePipeline pipeline;
    pipeline.word_vocab = &dataset.word_vocab();
    pipeline.concept_vocab = &dataset.concept_vocab();
    pipeline.extractor = &extractor;
    pipeline.options = dataset_options;
    serve::EngineOptions engine_options;
    engine_options.max_batch = flags.GetInt("serve_batch", 16);
    engine_options.max_queue = flags.GetInt("http_max_queue", 128);
    engine_options.deadline_ms = flags.GetInt("http_deadline_ms", 250);
    serve::InferenceEngine engine(&frozen, pipeline, engine_options);
    serve::HttpServerOptions server_options;
    server_options.port = flags.GetInt("http_port", 0);
    // Optional shared secret for the mutating admin surface; read-only
    // endpoints (and /healthz probes) stay open either way.
    server_options.auth_token = flags.GetString("http_auth_token", "");
    serve::HttpServer server(&engine, server_options);
    server.Start();
    std::printf("serving %s snapshot %016llx on http://127.0.0.1:%d "
                "(POST /v1/score, GET /v1/stats, GET /healthz)\n",
                model_name.c_str(),
                static_cast<unsigned long long>(frozen.fingerprint()),
                server.port());

    const int http_requests = flags.GetInt("http_requests", 0);
    if (http_requests > 0) {
      // Served, loaded, and measured in one process.
      serve::LoadGenOptions load_options;
      load_options.port = server.port();
      load_options.requests = http_requests;
      load_options.concurrency = flags.GetInt("http_concurrency", 4);
      load_options.qps = flags.GetDouble("http_qps", 0.0);
      load_options.seed = cohort_config.seed;
      const serve::LoadGenReport report = serve::RunLoadGen(load_options);
      std::printf("loadgen: %s\n", report.ToJson().c_str());
      std::printf("engine stats: %s\n", engine.stats().ToJson().c_str());
      std::printf("server stats: %s\n", server.stats().ToJson().c_str());
    } else {
      std::printf("press Ctrl-D to stop\n");
      for (std::string line; std::getline(std::cin, line);) {
      }
    }
    server.Stop();
  }
  return 0;
}
