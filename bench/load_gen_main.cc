// kddn_loadgen — closed/open-loop load harness for the HTTP serving
// front-end (DESIGN.md §11).
//
// Two modes:
//
//  * Self-hosted bench (default): trains a BK-DDN at the BENCH_serve scale,
//    freezes it behind a pipeline-equipped InferenceEngine with admission
//    control, starts the HTTP server on an ephemeral port, then (1) checks
//    every pool note scores bitwise-identically over HTTP and in-process,
//    (2) runs a closed-loop pass for the latency/throughput headline, and
//    (3) sweeps open-loop QPS steps to locate the saturation knee. Emits
//    BENCH_http.json (gated by scripts/check_bench.py under the perf label).
//
//      ./build/bench/kddn_loadgen --json
//
//  * External target: load-test an already-running server (e.g. one started
//    with run_experiment --http_port) and print the report.
//
//      ./build/bench/kddn_loadgen --port=8080 --requests=2000
//          --concurrency=8 --qps=200
//
//  * Hot-swap bench (--swap_json): trains TWO snapshots, serves A behind a
//    SnapshotRegistry-equipped server, then measures the swap story end to
//    end — steady-state p99, a health-gated swap to B under live load (zero
//    failed requests, every score consistent with the fingerprint on its
//    response), corrupted and golden-mismatched candidates refused over
//    HTTP, and a deterministic chaos campaign driving the probation
//    watchdog into an automatic rollback. Emits BENCH_swap.json (gated by
//    scripts/check_bench.py).
//
//      ./build/bench/kddn_loadgen --swap_json
//
// Flags: --port, --requests, --concurrency, --qps (0 = closed loop),
// --seed, --note_pool, --json[=path] (default BENCH_http.json),
// --swap_json[=path] (default BENCH_swap.json), --chaos=<schedule spec>.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/chaos.h"
#include "common/fault_injector.h"
#include "common/flags.h"
#include "common/net_util.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "kb/concept_extractor.h"
#include "models/bk_ddn.h"
#include "serve/frozen_model.h"
#include "serve/http_server.h"
#include "serve/inference_engine.h"
#include "serve/json_util.h"
#include "serve/load_gen.h"
#include "serve/snapshot_registry.h"
#include "synth/cohort.h"

namespace kddn {
namespace {

/// Scores every pool note both in-process (engine.ScoreNote) and over the
/// wire; true only if every pair is bitwise equal.
bool CheckBitwiseScores(serve::InferenceEngine* engine, int port,
                        const std::vector<std::string>& pool) {
  net::ScopedFd fd(net::ConnectTcp("127.0.0.1", port));
  bool all_equal = true;
  for (size_t i = 0; i < pool.size(); ++i) {
    const float reference = engine->ScoreNote(pool[i]);
    serve::RequestOutcome outcome;
    if (!serve::ScoreOverHttp(fd.get(), pool[i], &outcome) ||
        outcome.status != 200) {
      std::fprintf(stderr, "bitwise check: note %zu failed (status %d)\n", i,
                   outcome.status);
      return false;
    }
    if (outcome.score != reference) {
      std::fprintf(stderr,
                   "bitwise check: note %zu served %.9g != in-process %.9g\n",
                   i, outcome.score, reference);
      all_equal = false;
    }
  }
  return all_equal;
}

int RunSelfHostedBench(const Flags& flags) {
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 21));

  // Model + dataset at the BENCH_serve scale (paper-sized embedding and
  // filter widths, trimmed patient count).
  auto kb = kb::KnowledgeBase::BuildDefault();
  kb::ConceptExtractor extractor(&kb);
  synth::CohortConfig cohort_config;
  cohort_config.num_patients = 400;
  cohort_config.seed = seed;
  const synth::Cohort cohort = synth::Cohort::Generate(cohort_config, kb);
  data::DatasetOptions data_options;
  data_options.max_words = 96;
  data_options.max_concepts = 48;
  const data::MortalityDataset dataset =
      data::MortalityDataset::Build(cohort, extractor, data_options);

  models::ModelConfig model_config;
  model_config.word_vocab_size = dataset.word_vocab().size();
  model_config.concept_vocab_size = dataset.concept_vocab().size();
  model_config.embedding_dim = 20;
  model_config.num_filters = 50;
  model_config.seed = 5;
  models::BkDdn model(model_config);
  core::TrainOptions train_options;
  train_options.epochs = 1;
  train_options.batch_size = 32;
  core::Trainer trainer(train_options);
  std::printf("training BK-DDN for the HTTP bench...\n");
  trainer.Train(&model, dataset.train(), dataset.validation(),
                synth::Horizon::kInHospital);

  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(model);
  serve::NotePipeline pipeline;
  pipeline.word_vocab = &dataset.word_vocab();
  pipeline.concept_vocab = &dataset.concept_vocab();
  pipeline.extractor = &extractor;
  pipeline.options = data_options;
  serve::EngineOptions engine_options;
  engine_options.max_batch = 16;
  engine_options.max_queue = 128;
  engine_options.deadline_ms = 250;
  serve::InferenceEngine engine(&frozen, pipeline, engine_options);

  serve::HttpServer server(&engine);
  server.Start();
  std::printf("serving snapshot %016llx on 127.0.0.1:%d\n",
              static_cast<unsigned long long>(frozen.fingerprint()),
              server.port());

  serve::LoadGenOptions load_options;
  load_options.port = server.port();
  load_options.requests = flags.GetInt("requests", 400);
  load_options.concurrency = flags.GetInt("concurrency", 4);
  load_options.seed = seed;
  load_options.note_pool_size = flags.GetInt("note_pool", 64);

  // (1) The acceptance invariant: HTTP == in-process, bitwise.
  const std::vector<std::string> pool =
      serve::BuildNotePool(load_options.seed, load_options.note_pool_size);
  const bool bitwise = CheckBitwiseScores(&engine, server.port(), pool);
  std::printf("scores_bitwise_equal: %s\n", bitwise ? "true" : "false");

  // (2) Closed-loop headline numbers.
  const serve::LoadGenReport closed = serve::RunLoadGen(load_options);
  std::printf("closed loop: %s\n", closed.ToJson().c_str());

  // (3) Open-loop knee sweep around the measured closed-loop capacity.
  const double capacity = closed.achieved_rps;
  const std::vector<double> steps = {0.25 * capacity, 0.5 * capacity,
                                     0.75 * capacity, capacity,
                                     1.5 * capacity, 2.0 * capacity};
  const serve::KneeSweep sweep = serve::FindSaturationKnee(load_options, steps);
  std::printf("knee sweep: %s\n", sweep.ToJson().c_str());

  const std::string out_path =
      flags.GetString("json", "BENCH_http.json") == "true"
          ? "BENCH_http.json"
          : flags.GetString("json", "BENCH_http.json");
  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"single_core_host\": "
      << (std::thread::hardware_concurrency() <= 1 ? "true" : "false")
      << ",\n"
      << "  \"build_type\": \"" << KDDN_BUILD_TYPE << "\",\n"
      << "  \"model\": \"" << frozen.name() << "\",\n"
      << "  \"scores_bitwise_equal\": " << (bitwise ? "true" : "false")
      << ",\n"
      << "  \"closed_loop\": " << closed.ToJson() << ",\n"
      << "  \"p50_ms\": " << serve::DoubleToJson(closed.p50_ms) << ",\n"
      << "  \"p99_ms\": " << serve::DoubleToJson(closed.p99_ms) << ",\n"
      << "  \"p999_ms\": " << serve::DoubleToJson(closed.p999_ms) << ",\n"
      << "  \"throughput_rps\": " << serve::DoubleToJson(closed.achieved_rps)
      << ",\n"
      << "  \"shed_rate\": " << serve::DoubleToJson(closed.shed_rate) << ",\n"
      << "  \"knee_qps\": " << serve::DoubleToJson(sweep.knee_qps) << ",\n"
      << "  \"knee_sweep\": " << sweep.ToJson() << ",\n"
      << "  \"engine_stats\": " << engine.stats().ToJson() << ",\n"
      << "  \"server_stats\": " << server.stats().ToJson() << "\n"
      << "}\n";
  std::printf("wrote %s (p50 %.2fms p99 %.2fms p999 %.2fms, %.0f rps, "
              "knee %.0f qps)\n",
              out_path.c_str(), closed.p50_ms, closed.p99_ms, closed.p999_ms,
              closed.achieved_rps, sweep.knee_qps);
  server.Stop();
  return bitwise ? 0 : 1;
}

/// POSTs /v1/admin/swap for `fingerprint` and parses the outcome fields.
struct SwapReply {
  int http_status = 0;
  std::string result;
  double swap_ms = 0.0;
  bool transport_ok = false;
};

SwapReply AdminSwap(int port, uint64_t fingerprint) {
  SwapReply reply;
  const std::string body = "{\"fingerprint\": \"" +
                           serve::FingerprintToHex(fingerprint) + "\"}";
  std::string response;
  reply.transport_ok = serve::HttpRequestJson(
      "127.0.0.1", port, "POST", "/v1/admin/swap", body, &reply.http_status,
      &response);
  std::map<std::string, serve::JsonValue> fields;
  std::string error;
  if (reply.transport_ok &&
      serve::ParseFlatJsonObject(response, &fields, &error)) {
    const auto result = fields.find("result");
    if (result != fields.end()) {
      reply.result = result->second.string_value;
    }
    const auto swap_ms = fields.find("swap_ms");
    if (swap_ms != fields.end()) {
      reply.swap_ms = swap_ms->second.number_value;
    }
  }
  return reply;
}

int RunSwapBench(const Flags& flags) {
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 21));

  // Shared dataset and pipeline; three models differing only in their init
  // seed (A = incumbent, B = candidate, C = sacrificial reject-candidate).
  auto kb = kb::KnowledgeBase::BuildDefault();
  kb::ConceptExtractor extractor(&kb);
  synth::CohortConfig cohort_config;
  cohort_config.num_patients = 250;
  cohort_config.seed = seed;
  const synth::Cohort cohort = synth::Cohort::Generate(cohort_config, kb);
  data::DatasetOptions data_options;
  data_options.max_words = 96;
  data_options.max_concepts = 48;
  const data::MortalityDataset dataset =
      data::MortalityDataset::Build(cohort, extractor, data_options);

  models::ModelConfig model_config;
  model_config.word_vocab_size = dataset.word_vocab().size();
  model_config.concept_vocab_size = dataset.concept_vocab().size();
  model_config.embedding_dim = 16;
  model_config.num_filters = 32;
  core::TrainOptions train_options;
  train_options.epochs = 1;
  train_options.batch_size = 32;
  core::Trainer trainer(train_options);
  auto train_snapshot = [&](int init_seed) {
    models::ModelConfig config = model_config;
    config.seed = init_seed;
    models::BkDdn model(config);
    trainer.Train(&model, dataset.train(), dataset.validation(),
                  synth::Horizon::kInHospital);
    return serve::FrozenModel::Freeze(model);
  };
  std::printf("training snapshots A, B, C for the hot-swap bench...\n");
  const serve::FrozenModel frozen_a = train_snapshot(5);
  const serve::FrozenModel frozen_b = train_snapshot(11);
  const serve::FrozenModel frozen_c = train_snapshot(17);

  serve::NotePipeline pipeline;
  pipeline.word_vocab = &dataset.word_vocab();
  pipeline.concept_vocab = &dataset.concept_vocab();
  pipeline.extractor = &extractor;
  pipeline.options = data_options;
  serve::EngineOptions engine_options;
  engine_options.max_batch = 16;
  engine_options.max_queue = 256;
  engine_options.deadline_ms = 2000;
  // The chaos phase drives the probation budget through the extractor fault
  // site, so every request must actually traverse it: no concept cache.
  engine_options.cache_capacity = 0;
  serve::InferenceEngine engine(
      std::make_shared<const serve::FrozenModel>(frozen_a), pipeline,
      engine_options);

  serve::SwapPolicy policy;
  policy.max_failure_rate = 0.02;
  policy.min_probation_samples = 20;
  policy.probation_requests = 1 << 20;  // Probation spans the whole phase.
  serve::SnapshotRegistry registry(&engine, policy);
  const uint64_t fp_a = frozen_a.fingerprint();
  const uint64_t fp_b = frozen_b.fingerprint();

  // Golden notes: the first few pool notes, encoded exactly as serving
  // will encode them; candidate B must reproduce its offline scores on
  // them bitwise before it can publish.
  serve::LoadGenOptions load_options;
  load_options.requests = flags.GetInt("requests", 300);
  load_options.concurrency = flags.GetInt("concurrency", 4);
  load_options.seed = seed;
  load_options.note_pool_size = flags.GetInt("note_pool", 48);
  load_options.max_retries = 4;
  const std::vector<std::string> pool =
      serve::BuildNotePool(load_options.seed, load_options.note_pool_size);
  std::vector<data::Example> golden_examples;
  for (size_t i = 0; i < 8 && i < pool.size(); ++i) {
    golden_examples.push_back(engine.EncodeNote(pool[i]));
  }
  serve::FrozenModel::Workspace ws;
  std::vector<float> golden_scores_b;
  for (const data::Example& example : golden_examples) {
    golden_scores_b.push_back(frozen_b.ScorePositive(example, &ws));
  }
  registry.SetGoldenExamples(golden_examples);
  registry.Add(frozen_b, golden_scores_b);

  // Per-note, per-snapshot references for the consistency check: a response
  // is correct iff its score bitwise-matches the reference of the snapshot
  // named by its own fingerprint.
  std::map<uint64_t, std::vector<float>> references;
  for (const std::string& note : pool) {
    const data::Example example = engine.EncodeNote(note);
    references[fp_a].push_back(frozen_a.ScorePositive(example, &ws));
    references[fp_b].push_back(frozen_b.ScorePositive(example, &ws));
  }
  auto scores_consistent = [&](const serve::LoadGenReport& report) {
    for (const serve::RequestOutcome& outcome : report.outcomes) {
      if (outcome.status != 200 || outcome.degraded) {
        continue;  // Degraded scores use <pad> concepts by design.
      }
      const auto reference = references.find(outcome.fingerprint);
      if (reference == references.end() ||
          outcome.score != reference->second[static_cast<size_t>(
                               outcome.note_index)]) {
        return false;
      }
    }
    return true;
  };

  serve::HttpServerOptions http_options;
  http_options.idle_timeout_ms = 5000;
  serve::HttpServer server(&engine, &registry, http_options);
  server.Start();
  load_options.port = server.port();
  std::printf("serving snapshot %016llx on 127.0.0.1:%d (candidate %016llx)\n",
              static_cast<unsigned long long>(fp_a), server.port(),
              static_cast<unsigned long long>(fp_b));

  // Phase 1 — steady state on the incumbent.
  const serve::LoadGenReport steady = serve::RunLoadGen(load_options);
  std::printf("steady: %s\n", steady.ToJson().c_str());

  // Phase 2 — swap A -> B in the middle of an identical load run.
  SwapReply swap_reply;
  std::thread swapper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<int>(steady.wall_ms / 3)));
    swap_reply = AdminSwap(server.port(), fp_b);
  });
  const serve::LoadGenReport swap_run = serve::RunLoadGen(load_options);
  swapper.join();
  std::printf("swap run: %s\n", swap_run.ToJson().c_str());
  const int64_t failed_during_swap =
      swap_run.transport_errors + swap_run.http_errors +
      swap_run.shed_queue_full + swap_run.shed_deadline;
  const bool swap_scores_ok = scores_consistent(swap_run);
  const bool swap_published =
      swap_reply.transport_ok && swap_reply.http_status == 200 &&
      swap_reply.result == "published";

  // Phase 3 — the health gate refuses a corrupted snapshot, then a clean
  // snapshot whose claimed golden scores belong to another model.
  serve::FrozenModel corrupt_c = frozen_c;
  corrupt_c.CorruptWeightForTest(7);
  registry.Add(corrupt_c);
  const SwapReply corrupt_reply = AdminSwap(server.port(),
                                            frozen_c.fingerprint());
  const bool corrupt_rejected = corrupt_reply.http_status == 409 &&
                                corrupt_reply.result == "checksum-mismatch";
  registry.Add(frozen_c, golden_scores_b);  // B's goldens: an impostor.
  const SwapReply golden_reply = AdminSwap(server.port(),
                                           frozen_c.fingerprint());
  const bool golden_rejected = golden_reply.http_status == 409 &&
                               golden_reply.result == "golden-mismatch";
  std::printf("health gate: corrupt -> %d %s, impostor -> %d %s\n",
              corrupt_reply.http_status, corrupt_reply.result.c_str(),
              golden_reply.http_status, golden_reply.result.c_str());

  // Phase 4 — swap back to A and run a deterministic chaos campaign that
  // bursts extractor faults; degraded responses breach the probation
  // budget and the watchdog must republish B on its own.
  const SwapReply back_reply = AdminSwap(server.port(), fp_a);
  const bool back_published = back_reply.http_status == 200 &&
                              back_reply.result == "published";
  const std::string chaos_spec = flags.GetString(
      "chaos", "serve.encode.extract@0x30;serve.encode.extract@60x10");
  const ChaosSchedule schedule = ChaosSchedule::Parse(chaos_spec);
  size_t chaos_fired = 0;
  serve::LoadGenReport chaos_run;
  {
    ChaosCampaign campaign(schedule);
    chaos_run = serve::RunLoadGen(load_options);
    chaos_fired = FaultInjector::Instance().FiredLog().size();
  }
  // The reactor polls probation every loop tick; give it a few ticks.
  serve::RegistrySnapshot registry_snap = registry.snapshot();
  for (int i = 0; i < 50 && registry_snap.rollbacks == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    registry_snap = registry.snapshot();
  }
  const bool rollback_observed =
      registry_snap.rollbacks == 1 && registry.active_fingerprint() == fp_b;
  const bool chaos_scores_ok = scores_consistent(chaos_run);
  std::printf("chaos run: %s\n", chaos_run.ToJson().c_str());
  std::printf("chaos fired %zu; registry %s\n", chaos_fired,
              registry_snap.ToJson().c_str());

  const double p99_inflation =
      steady.p99_ms > 0.0 ? swap_run.p99_ms / steady.p99_ms : 0.0;
  const std::string out_path =
      flags.GetString("swap_json", "BENCH_swap.json") == "true"
          ? "BENCH_swap.json"
          : flags.GetString("swap_json", "BENCH_swap.json");
  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"single_core_host\": "
      << (std::thread::hardware_concurrency() <= 1 ? "true" : "false")
      << ",\n"
      << "  \"build_type\": \"" << KDDN_BUILD_TYPE << "\",\n"
      << "  \"model\": \"" << frozen_a.name() << "\",\n"
      << "  \"fingerprint_a\": \"" << serve::FingerprintToHex(fp_a)
      << "\",\n"
      << "  \"fingerprint_b\": \"" << serve::FingerprintToHex(fp_b)
      << "\",\n"
      << "  \"swap_published\": " << (swap_published ? "true" : "false")
      << ",\n"
      << "  \"swap_latency_ms\": " << serve::DoubleToJson(swap_reply.swap_ms)
      << ",\n"
      << "  \"requests_failed_during_swap\": " << failed_during_swap << ",\n"
      << "  \"retries_during_swap\": " << swap_run.total_retries << ",\n"
      << "  \"p99_steady_ms\": " << serve::DoubleToJson(steady.p99_ms)
      << ",\n"
      << "  \"p99_swap_ms\": " << serve::DoubleToJson(swap_run.p99_ms)
      << ",\n"
      << "  \"p99_inflation\": " << serve::DoubleToJson(p99_inflation)
      << ",\n"
      << "  \"scores_bitwise_consistent\": "
      << (swap_scores_ok && chaos_scores_ok ? "true" : "false") << ",\n"
      << "  \"corrupt_swap_rejected\": "
      << (corrupt_rejected ? "true" : "false") << ",\n"
      << "  \"golden_swap_rejected\": "
      << (golden_rejected ? "true" : "false") << ",\n"
      << "  \"rollback_observed\": "
      << (rollback_observed ? "true" : "false") << ",\n"
      << "  \"rollback_latency_ms\": "
      << serve::DoubleToJson(registry_snap.last_rollback_ms) << ",\n"
      << "  \"chaos_schedule\": \"" << serve::JsonEscape(schedule.ToString())
      << "\",\n"
      << "  \"chaos_fired\": " << chaos_fired << ",\n"
      << "  \"registry\": " << registry_snap.ToJson() << ",\n"
      << "  \"steady_run\": " << steady.ToJson() << ",\n"
      << "  \"swap_run\": " << swap_run.ToJson() << ",\n"
      << "  \"chaos_run\": " << chaos_run.ToJson() << "\n"
      << "}\n";
  const bool all_ok = swap_published && failed_during_swap == 0 &&
                      swap_scores_ok && chaos_scores_ok && corrupt_rejected &&
                      golden_rejected && back_published && rollback_observed;
  std::printf("wrote %s (swap %.2fms, p99 %.2f -> %.2fms, rollback %s)\n",
              out_path.c_str(), swap_reply.swap_ms, steady.p99_ms,
              swap_run.p99_ms, rollback_observed ? "observed" : "MISSING");
  server.Stop();
  return all_ok ? 0 : 1;
}

int RunExternalTarget(const Flags& flags) {
  serve::LoadGenOptions options;
  options.host = flags.GetString("host", "127.0.0.1");
  options.port = flags.GetInt("port", 0);
  options.requests = flags.GetInt("requests", 400);
  options.concurrency = flags.GetInt("concurrency", 4);
  options.qps = flags.GetDouble("qps", 0.0);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 21));
  options.note_pool_size = flags.GetInt("note_pool", 64);
  const serve::LoadGenReport report = serve::RunLoadGen(options);
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace kddn

int main(int argc, char** argv) {
  const kddn::Flags flags = kddn::Flags::Parse(argc, argv);
  try {
    if (flags.Has("port")) {
      return kddn::RunExternalTarget(flags);
    }
    if (flags.Has("swap_json")) {
      return kddn::RunSwapBench(flags);
    }
    return kddn::RunSelfHostedBench(flags);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "kddn_loadgen: %s\n", error.what());
    return 1;
  }
}
