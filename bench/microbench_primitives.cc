// Google-benchmark microbenchmarks for the primitives every experiment sits
// on: matmul, the CNN block, co-attention forward+backward, MetaMap-style
// extraction, LDA Gibbs sweeps, and t-SNE. Useful for spotting performance
// regressions in the substrate.
//
// Run with --parallel_json[=path] to instead emit BENCH_parallel.json:
// wall-clock of one BK-DDN training epoch on a NURSING-scale synthetic
// corpus at 1/2/4 executor lanes — the epoch-scaling trajectory that future
// scaling changes diff against.
//
// Run with --serve_json[=path] to emit BENCH_serve.json: serving-path
// throughput on a trained BK-DDN — one-at-a-time autograd forward vs the
// frozen snapshot vs the batched inference engine, each timed over whole
// passes filling a window of at least one second — plus engine latency
// percentiles and the concept-cache hit rate on a repeated-note workload.
//
// Run with --train_json[=path] to emit BENCH_train.json: single-thread
// BK-DDN epoch wall-clock and in-situ GEMM wall-clock under the scalar
// lane-faithful GEMM reference and under the runtime-dispatched SIMD GEMM,
// asserting that both train bitwise-identical weights (DESIGN.md §9).
//
// Run with --trace_json[=path] to emit BENCH_trace.json: the observability
// invariants (DESIGN.md §12) — per-span overhead with tracing disabled (the
// relaxed-atomic fast path) and enabled, per-stage wall time from a traced
// build + train + serve run, and the frozen-forward zero-tensor-allocation
// flag measured through alloc::AllocScope. Fails (exit 1) if the warm
// forward allocates. Gated by scripts/check_bench.py.
//
// Run with --jobs_json[=path] to emit BENCH_jobs.json: the job-graph
// executor's overlap speedup over a stage-barrier schedule of the same jobs
// on a staged pipeline at executor size 2 (the median ratio over
// interleaved pairs), plus steady-state jobs/sec across reused generations
// (DESIGN.md §14).
// Gated by scripts/check_bench.py.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "baselines/lda.h"
#include "common/alloc_tracker.h"
#include "common/job_executor.h"
#include "common/job_graph.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "kb/concept_extractor.h"
#include "models/bk_ddn.h"
#include "nn/layers.h"
#include "serve/frozen_model.h"
#include "serve/inference_engine.h"
#include "synth/cohort.h"
#include "tensor/tensor_ops.h"
#include "viz/tsne.h"

namespace kddn {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Tensor a = RandomNormal({n, n}, 0, 1, &rng);
  Tensor b = RandomNormal({n, n}, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_Conv1dBankForward(benchmark::State& state) {
  const int tokens = static_cast<int>(state.range(0));
  Rng rng(2);
  nn::ParameterSet params;
  nn::Conv1dBank conv(&params, "conv", 20, 50, {1, 2, 3}, &rng);
  ag::NodePtr x =
      ag::Node::Leaf(RandomNormal({tokens, 20}, 0, 1, &rng), false, "x");
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x));
  }
}
BENCHMARK(BM_Conv1dBankForward)->Arg(64)->Arg(160)->Arg(256);

void BM_CoAttentionForwardBackward(benchmark::State& state) {
  const int words = static_cast<int>(state.range(0));
  const int concepts = words / 3 + 1;
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    ag::NodePtr w = ag::Node::Leaf(RandomNormal({words, 20}, 0, 1, &rng),
                                   true, "w");
    ag::NodePtr c = ag::Node::Leaf(RandomNormal({concepts, 20}, 0, 1, &rng),
                                   true, "c");
    state.ResumeTiming();
    nn::AttiResult atti = nn::Atti(w, c);
    ag::Backward(ag::MeanAll(atti.output));
    benchmark::DoNotOptimize(w->grad());
  }
}
BENCHMARK(BM_CoAttentionForwardBackward)->Arg(64)->Arg(160)->Arg(256);

void BM_ConceptExtraction(benchmark::State& state) {
  auto kb = kb::KnowledgeBase::BuildDefault();
  kb::ConceptExtractor extractor(&kb);
  synth::NoteGenerator generator(&kb);
  auto panel = synth::BuildDiseasePanel(kb);
  synth::PatientState patient;
  patient.diseases = {&panel[0], &panel[3], &panel[6]};
  Rng rng(4);
  const std::string note =
      generator.Generate(patient, synth::NoteStyle::kRadiology, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(note));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(note.size()));
}
BENCHMARK(BM_ConceptExtraction);

void BM_LdaGibbsSweep(benchmark::State& state) {
  Rng rng(5);
  std::vector<std::vector<int>> docs;
  for (int d = 0; d < 200; ++d) {
    std::vector<int> doc;
    for (int t = 0; t < 80; ++t) {
      doc.push_back(rng.UniformInt(500));
    }
    docs.push_back(std::move(doc));
  }
  for (auto _ : state) {
    baselines::LdaOptions options;
    options.num_topics = 50;
    options.train_iterations = 1;
    baselines::Lda lda(options);
    lda.Fit(docs, 500);
    benchmark::DoNotOptimize(lda.TrainDocTopics(0));
  }
}
BENCHMARK(BM_LdaGibbsSweep);

void BM_TsneSmall(benchmark::State& state) {
  Rng rng(6);
  Tensor points = RandomNormal({120, 30}, 0, 1, &rng);
  for (auto _ : state) {
    viz::TsneOptions options;
    options.iterations = 50;
    options.perplexity = 15.0;
    benchmark::DoNotOptimize(viz::Tsne(points, options));
  }
}
BENCHMARK(BM_TsneSmall);

/// Seconds of wall clock for one call of `fn`, repeated `reps` times taking
/// the best (least-noisy) run.
template <typename Fn>
double BestSeconds(int reps, const Fn& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, elapsed.count());
  }
  return best;
}

/// Seconds per call of `fn`, averaged over whole calls until at least
/// `min_seconds` of wall clock has elapsed: a window long enough that one
/// slow stretch of a shared host cannot decide the number.
template <typename Fn>
double WindowSeconds(double min_seconds, const Fn& fn) {
  const auto start = std::chrono::steady_clock::now();
  int64_t calls = 0;
  std::chrono::duration<double> elapsed{0};
  do {
    fn();
    ++calls;
    elapsed = std::chrono::steady_clock::now() - start;
  } while (elapsed.count() < min_seconds);
  return elapsed.count() / static_cast<double>(calls);
}

/// True on degenerate hosts where thread-scaling numbers are meaningless:
/// recorded into every bench artifact so readers (and scripts/check_bench.py)
/// can tell a regression from a hardware limitation.
bool SingleCoreHost() { return std::thread::hardware_concurrency() <= 1; }

void WriteHostFields(std::ofstream& out) {
  out << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"single_core_host\": " << (SingleCoreHost() ? "true" : "false")
      << ",\n";
  out << "  \"simd_isa\": \"" << ActiveGemmIsa() << "\",\n";
  out << "  \"build_type\": \"" << KDDN_BUILD_TYPE << "\",\n";
}

void WriteJsonSection(std::ofstream& out, const char* name,
                      const std::vector<int>& threads,
                      const std::vector<double>& seconds, bool last = false) {
  out << "  \"" << name << "_seconds\": {";
  for (size_t i = 0; i < threads.size(); ++i) {
    out << "\"" << threads[i] << "\": " << seconds[i]
        << (i + 1 < threads.size() ? ", " : "");
  }
  out << "}" << (last ? "\n" : ",\n");
}

/// Epochs timed per BENCH_parallel row; the row reports the best of them.
constexpr int kParallelEpochReps = 3;

/// Emits BENCH_parallel.json: training-epoch wall-clock at 1, 2, and 4
/// executor lanes. Training is bitwise identical at every lane count, so the
/// columns differ only in wall-clock. Each row is the best of
/// kParallelEpochReps epochs, after one untimed warm-up epoch before the
/// first row, so no row times a cold start.
int RunParallelBench(const std::string& out_path) {
  const std::vector<int> thread_counts = {1, 2, 4};
  std::vector<double> epoch_s;

  // NURSING-scale synthetic corpus: paper-sized documents and embedding
  // widths, patient count trimmed so the whole sweep stays interactive.
  auto kb = kb::KnowledgeBase::BuildDefault();
  kb::ConceptExtractor extractor(&kb);
  synth::CohortConfig cohort_config;
  cohort_config.num_patients = 400;
  cohort_config.seed = 21;
  const synth::Cohort cohort = synth::Cohort::Generate(cohort_config, kb);
  data::DatasetOptions data_options;
  data_options.max_words = 96;
  data_options.max_concepts = 48;
  const data::MortalityDataset dataset =
      data::MortalityDataset::Build(cohort, extractor, data_options);

  const auto train_epoch = [&] {
    models::ModelConfig model_config;
    model_config.word_vocab_size = dataset.word_vocab().size();
    model_config.concept_vocab_size = dataset.concept_vocab().size();
    model_config.embedding_dim = 20;  // Paper's NURSING width.
    model_config.num_filters = 50;    // Paper's filter count.
    model_config.seed = 5;
    models::BkDdn model(model_config);
    core::TrainOptions train_options;
    train_options.epochs = 1;
    train_options.batch_size = 32;
    core::Trainer trainer(train_options);
    trainer.Train(&model, dataset.train(), dataset.validation(),
                  synth::Horizon::kInHospital);
  };
  SetGlobalThreadPoolSize(thread_counts.front());
  train_epoch();  // Untimed warm-up.
  for (int threads : thread_counts) {
    SetGlobalThreadPoolSize(threads);
    epoch_s.push_back(BestSeconds(kParallelEpochReps, train_epoch));
    std::printf("threads=%d epoch=%.3fs\n", threads, epoch_s.back());
  }
  SetGlobalThreadPoolSize(0);

  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n";
  WriteHostFields(out);
  out << "  \"thread_counts\": [1, 2, 4],\n";
  out << "  \"timed_epochs_per_row\": " << kParallelEpochReps << ",\n";
  WriteJsonSection(out, "bkddn_epoch_nursing400", thread_counts, epoch_s);
  out << "  \"epoch_speedup_4_vs_1\": " << epoch_s[0] / epoch_s[2] << "\n";
  out << "}\n";
  std::printf("wrote %s (epoch speedup 4 vs 1 threads: %.2fx)\n",
              out_path.c_str(), epoch_s[0] / epoch_s[2]);
  return 0;
}

/// Minimum wall clock each BENCH_serve row is timed over, in whole passes.
constexpr double kServeWindowSeconds = 1.0;

/// Emits BENCH_serve.json: the serving-path acceptance numbers. Scores the
/// same held-out split three ways — per-example autograd graph, per-example
/// frozen forward, and the batched engine — asserts the three agree bitwise,
/// and measures a repeated-note ScoreNote workload for the cache hit rate.
/// Each row's seconds are the mean pass time over a window of whole passes
/// lasting at least kServeWindowSeconds, and its notes/s the rate over that
/// window.
int RunServeBench(const std::string& out_path) {
  auto kb = kb::KnowledgeBase::BuildDefault();
  kb::ConceptExtractor extractor(&kb);
  synth::CohortConfig cohort_config;
  cohort_config.num_patients = 400;
  cohort_config.seed = 21;
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
  std::printf("training BK-DDN for the serve bench...\n");
  trainer.Train(&model, dataset.train(), dataset.validation(),
                synth::Horizon::kInHospital);

  const std::vector<data::Example>& split = dataset.test();
  const size_t n = split.size();
  std::vector<float> autograd_scores(n), frozen_scores(n), engine_scores(n);

  const double autograd_s = WindowSeconds(kServeWindowSeconds, [&] {
    for (size_t i = 0; i < n; ++i) {
      autograd_scores[i] = model.PredictPositiveProbability(split[i]);
    }
  });

  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(model);
  serve::FrozenModel::Workspace ws;
  const double frozen_s = WindowSeconds(kServeWindowSeconds, [&] {
    for (size_t i = 0; i < n; ++i) {
      frozen_scores[i] = frozen.ScorePositive(split[i], &ws);
    }
  });

  serve::EngineOptions engine_options;
  engine_options.max_batch = 16;
  serve::InferenceEngine engine(&frozen, engine_options);
  const double engine_s = WindowSeconds(kServeWindowSeconds, [&] {
    std::vector<std::future<serve::Scored>> futures;
    futures.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      futures.push_back(engine.ScoreAsync(split[i]));
    }
    for (size_t i = 0; i < n; ++i) {
      engine_scores[i] = futures[i].get().score;
    }
  });

  bool bitwise = true;
  for (size_t i = 0; i < n; ++i) {
    bitwise = bitwise && autograd_scores[i] == frozen_scores[i] &&
              autograd_scores[i] == engine_scores[i];
  }

  // Raw-note workload: every note scored twice, so a working concept cache
  // converges to a 50% hit rate.
  serve::NotePipeline pipeline;
  pipeline.word_vocab = &dataset.word_vocab();
  pipeline.concept_vocab = &dataset.concept_vocab();
  pipeline.extractor = &extractor;
  pipeline.options = data_options;
  serve::InferenceEngine note_engine(&frozen, pipeline, engine_options);
  size_t notes_scored = 0;
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < std::min<size_t>(40, cohort.patients().size());
         ++i) {
      note_engine.ScoreNote(cohort.patients()[i].text);
      ++notes_scored;
    }
  }

  const serve::StatsSnapshot engine_stats = engine.stats();
  const serve::StatsSnapshot note_stats = note_engine.stats();
  std::printf(
      "n=%zu autograd=%.4fs frozen=%.4fs engine=%.4fs bitwise=%s "
      "cache_hit_rate=%.2f\n",
      n, autograd_s, frozen_s, engine_s, bitwise ? "yes" : "NO",
      note_stats.cache_hit_rate);

  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n";
  WriteHostFields(out);
  out << "  \"test_examples\": " << n << ",\n";
  out << "  \"timing_window_min_seconds\": " << kServeWindowSeconds << ",\n";
  out << "  \"snapshot_fingerprint\": \"" << std::hex << frozen.fingerprint()
      << std::dec << "\",\n";
  out << "  \"autograd_seconds\": " << autograd_s << ",\n";
  out << "  \"frozen_seconds\": " << frozen_s << ",\n";
  out << "  \"engine_batched_seconds\": " << engine_s << ",\n";
  out << "  \"autograd_notes_per_s\": " << static_cast<double>(n) / autograd_s
      << ",\n";
  out << "  \"frozen_notes_per_s\": " << static_cast<double>(n) / frozen_s
      << ",\n";
  out << "  \"engine_batched_notes_per_s\": "
      << static_cast<double>(n) / engine_s << ",\n";
  out << "  \"batched_vs_autograd_speedup\": " << autograd_s / engine_s
      << ",\n";
  out << "  \"bitwise_match\": " << (bitwise ? "true" : "false") << ",\n";
  out << "  \"raw_notes_scored\": " << notes_scored << ",\n";
  out << "  \"note_cache_hit_rate\": " << note_stats.cache_hit_rate << ",\n";
  out << "  \"engine_stats\": " << engine_stats.ToJson() << ",\n";
  out << "  \"note_engine_stats\": " << note_stats.ToJson() << "\n";
  out << "}\n";
  std::printf("wrote %s (batched vs autograd: %.2fx)\n", out_path.c_str(),
              autograd_s / engine_s);
  return bitwise ? 0 : 1;
}

/// One row of the training bench: a GEMM kernel choice.
struct TrainMode {
  const char* name;
  GemmKernel kernel;
};

/// Emits BENCH_train.json. Trains the same BK-DDN (same seeds, same data,
/// one thread) under the scalar lane-faithful GEMM reference and under the
/// dispatched SIMD GEMM, reports epoch wall-clock and in-situ GEMM
/// wall-clock (`simd_vs_scalar_speedup` compares the time actually spent
/// inside DispatchGemm on the identical workload, undiluted by the non-GEMM
/// epoch cost), and fails (exit 1) unless the two runs produce
/// bitwise-identical weights (`simd_vs_scalar_bitwise_identical`, which
/// scripts/check_bench.py hard-gates). The word vocabulary is padded to a
/// MIMIC-scale 150k rows.
int RunTrainBench(const std::string& out_path) {
  auto kb = kb::KnowledgeBase::BuildDefault();
  kb::ConceptExtractor extractor(&kb);
  synth::CohortConfig cohort_config;
  cohort_config.num_patients = 300;
  cohort_config.seed = 21;
  const synth::Cohort cohort = synth::Cohort::Generate(cohort_config, kb);
  data::DatasetOptions data_options;
  data_options.max_words = 32;
  data_options.max_concepts = 16;
  const data::MortalityDataset dataset =
      data::MortalityDataset::Build(cohort, extractor, data_options);

  // Paper-scale widths; the word table is padded to a MIMIC-scale open
  // vocabulary (clinical corpora run to low-hundreds-of-thousands of types;
  // the synthetic generator's is far smaller), of which a batch touches a
  // few hundred rows.
  constexpr int kVocabFloor = 150000;
  models::ModelConfig model_config;
  model_config.word_vocab_size =
      std::max<int>(dataset.word_vocab().size(), kVocabFloor);
  model_config.concept_vocab_size = dataset.concept_vocab().size();
  model_config.embedding_dim = 20;
  model_config.num_filters = 50;
  model_config.seed = 5;

  core::TrainOptions train_options;
  train_options.epochs = 2;  // Amortises one-time table-init costs.
  train_options.batch_size = 16;
  train_options.seed = 7;
  // Single-lane training: the bench compares GEMM kernels, not schedules.
  const int previous_lanes = GlobalThreadPoolSize();
  SetGlobalThreadPoolSize(1);

  const TrainMode modes[] = {
      {"scalar", GemmKernel::kScalar},
      {"simd", GemmKernel::kAuto},
  };
  constexpr int kNumModes = 2;
  std::vector<double> seconds;
  std::vector<double> gemm_seconds;
  std::vector<std::vector<Tensor>> weights(kNumModes);
  for (int i = 0; i < kNumModes; ++i) {
    SetGemmKernel(modes[i].kernel);
    // In-situ GEMM accounting: an epoch-level ratio would dilute the kernel
    // change with the non-GEMM epoch cost. gemm_seconds is the wall-clock
    // the run actually spent inside DispatchGemm; its cost when enabled is
    // two clock reads per multi-µs matmul.
    ResetGemmTiming();
    SetGemmTimingEnabled(true);
    seconds.push_back(BestSeconds(2, [&] {
      models::BkDdn model(model_config);
      core::Trainer trainer(train_options);
      trainer.Train(&model, dataset.train(), dataset.validation(),
                    synth::Horizon::kInHospital);
      weights[i].clear();  // Reps are deterministic; keep the last copy.
      for (const ag::NodePtr& param : model.params().all()) {
        weights[i].push_back(param->value());
      }
    }));
    SetGemmTimingEnabled(false);
    // Both BestSeconds reps run the identical GEMM sequence; halving the
    // accumulated total keeps the artifact per-run like epoch_seconds.
    gemm_seconds.push_back(static_cast<double>(GetGemmTiming().total_ns) /
                           1e9 / 2.0);
    std::printf("%-14s epoch=%.3fs gemm=%.3fs\n", modes[i].name,
                seconds.back() / train_options.epochs,
                gemm_seconds.back() / train_options.epochs);
  }
  SetGemmKernel(GemmKernel::kAuto);
  SetGlobalThreadPoolSize(previous_lanes);

  bool bitwise = weights[0].size() == weights[1].size();
  for (size_t p = 0; bitwise && p < weights[0].size(); ++p) {
    bitwise = weights[0][p].SameShape(weights[1][p]) &&
              std::memcmp(weights[0][p].data(), weights[1][p].data(),
                          weights[1][p].size() * sizeof(float)) == 0;
  }
  const double simd_vs_scalar = gemm_seconds[0] / gemm_seconds[1];

  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n";
  WriteHostFields(out);
  // Per-mode record of the kernel that actually ran: the kAuto row reports
  // the ISA the one-time dispatch resolved to on this host, never the
  // literal "auto".
  out << "  \"gemm_kernel\": {";
  for (int i = 0; i < kNumModes; ++i) {
    out << "\"" << modes[i].name << "\": \""
        << (modes[i].kernel == GemmKernel::kAuto
                ? ActiveGemmIsa()
                : GemmKernelName(modes[i].kernel))
        << "\"" << (i < kNumModes - 1 ? ", " : "");
  }
  out << "},\n";
  out << "  \"config\": {\"num_patients\": " << cohort_config.num_patients
      << ", \"train_examples\": " << dataset.train().size()
      << ", \"max_words\": " << data_options.max_words
      << ", \"max_concepts\": " << data_options.max_concepts
      << ", \"word_vocab_size\": " << model_config.word_vocab_size
      << ", \"concept_vocab_size\": " << model_config.concept_vocab_size
      << ", \"embedding_dim\": " << model_config.embedding_dim
      << ", \"num_filters\": " << model_config.num_filters
      << ", \"batch_size\": " << train_options.batch_size
      << ", \"epochs\": " << train_options.epochs
      << ", \"num_threads\": 1},\n";
  out << "  \"epoch_seconds\": {";
  for (int i = 0; i < kNumModes; ++i) {
    out << "\"" << modes[i].name << "\": "
        << seconds[i] / train_options.epochs
        << (i < kNumModes - 1 ? ", " : "");
  }
  out << "},\n";
  out << "  \"gemm_seconds\": {";
  for (int i = 0; i < kNumModes; ++i) {
    out << "\"" << modes[i].name << "\": "
        << gemm_seconds[i] / train_options.epochs
        << (i < kNumModes - 1 ? ", " : "");
  }
  out << "},\n";
  // GEMM-time ratio on the identical workload (same shapes, same call
  // sequence): scalar reference vs dispatched.
  out << "  \"simd_vs_scalar_speedup\": " << simd_vs_scalar << ",\n";
  out << "  \"simd_vs_scalar_bitwise_identical\": "
      << (bitwise ? "true" : "false") << "\n";
  out << "}\n";
  std::printf("wrote %s (simd vs scalar GEMM %.2fx, bitwise=%s)\n",
              out_path.c_str(), simd_vs_scalar, bitwise ? "yes" : "NO");
  return bitwise ? 0 : 1;
}

/// Emits BENCH_trace.json: the observability invariants of DESIGN.md §12.
/// Three measurements share one artifact:
///
///  * `trace_disabled_overhead_ns` — per-span cost with tracing off, i.e.
///    the single relaxed atomic load every instrumented hot path pays
///    unconditionally. check_bench.py bounds it.
///  * `stage_wall_ms` — per-stage span rollup (count / total / max) from a
///    traced dataset-build + train + serve run, the numbers DESIGN.md §12
///    quotes instead of asserting in prose.
///  * `frozen_forward_alloc_free` — true iff a warm FrozenModel forward and
///    a warm engine batch pass perform zero tensor allocations, measured
///    through alloc::AllocScope. The PR-4 pooling claim as a hard gate.
int RunTraceBench(const std::string& out_path) {
  // --- Span overhead, disabled then enabled -------------------------------
  constexpr int kSpansPerRep = 1 << 20;
  const auto span_burst = [&] {
    for (int i = 0; i < kSpansPerRep; ++i) {
      KDDN_TRACE_SPAN("trace.noop");
    }
  };
  trace::SetEnabled(false);
  const double disabled_ns =
      BestSeconds(5, span_burst) / kSpansPerRep * 1e9;
  trace::SetEnabled(true);
  const double enabled_ns = BestSeconds(5, span_burst) / kSpansPerRep * 1e9;
  trace::SetEnabled(false);
  trace::Clear();
  std::printf("span overhead: disabled=%.1fns enabled=%.1fns\n", disabled_ns,
              enabled_ns);

  // --- Traced end-to-end run: build + train + serve -----------------------
  // Small enough that the per-thread rings (8192 events) keep every span;
  // `spans_dropped` in the artifact confirms.
  trace::SetEnabled(true);
  auto kb = kb::KnowledgeBase::BuildDefault();
  kb::ConceptExtractor extractor(&kb);
  synth::CohortConfig cohort_config;
  cohort_config.num_patients = 120;
  cohort_config.seed = 21;
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
  trainer.Train(&model, dataset.train(), dataset.validation(),
                synth::Horizon::kInHospital);

  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(model);
  serve::EngineOptions engine_options;
  engine_options.max_batch = 16;
  {
    serve::InferenceEngine engine(&frozen, engine_options);
    std::vector<std::future<serve::Scored>> futures;
    for (const data::Example& example : dataset.test()) {
      futures.push_back(engine.ScoreAsync(example));
    }
    for (std::future<serve::Scored>& future : futures) {
      future.get();
    }
  }
  trace::SetEnabled(false);

  const std::vector<trace::ThreadSnapshot> snapshot = trace::Snapshot();
  const std::map<std::string, trace::SpanStats> stages =
      trace::AggregateByName(snapshot);
  uint64_t spans_dropped = 0;
  for (const trace::ThreadSnapshot& thread : snapshot) {
    spans_dropped += thread.dropped;
  }
  trace::Clear();

  // --- Zero-allocation invariant on the warm serving path -----------------
  // Warm pass grows every workspace buffer to the split's high-water shape;
  // the measured passes must then leave the tensor allocator untouched.
  serve::FrozenModel::Workspace ws;
  float sink = 0.0f;
  for (const data::Example& example : dataset.test()) {
    sink += frozen.ScorePositive(example, &ws);
  }
  uint64_t forward_allocs = 0;
  {
    alloc::AllocScope scope("bench.frozen_forward");
    for (int rep = 0; rep < 3; ++rep) {
      for (const data::Example& example : dataset.test()) {
        sink += frozen.ScorePositive(example, &ws);
      }
    }
    forward_allocs = scope.allocations();
  }
  benchmark::DoNotOptimize(sink);
  const bool alloc_free = forward_allocs == 0;
  const alloc::Totals totals = alloc::GlobalTotals();
  std::printf("frozen_forward_alloc_free=%s (allocs=%llu over %zux3 warm "
              "examples), live=%llu peak=%llu bytes\n",
              alloc_free ? "true" : "FALSE",
              static_cast<unsigned long long>(forward_allocs),
              dataset.test().size(),
              static_cast<unsigned long long>(totals.live_bytes),
              static_cast<unsigned long long>(totals.peak_bytes));

  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n";
  WriteHostFields(out);
  out << "  \"trace_disabled_overhead_ns\": " << disabled_ns << ",\n";
  out << "  \"trace_enabled_overhead_ns\": " << enabled_ns << ",\n";
  out << "  \"ring_capacity_events\": " << trace::internal::kRingCapacity
      << ",\n";
  out << "  \"spans_dropped\": " << spans_dropped << ",\n";
  out << "  \"stage_wall_ms\": {";
  bool first = true;
  for (const auto& [name, stats] : stages) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"count\": "
        << stats.count << ", \"total_ms\": " << stats.total_ns / 1e6
        << ", \"max_ms\": " << stats.max_ns / 1e6 << "}";
    first = false;
  }
  out << "},\n";
  out << "  \"frozen_forward_alloc_free\": " << (alloc_free ? "true" : "false")
      << ",\n";
  out << "  \"frozen_forward_allocations\": " << forward_allocs << ",\n";
  out << "  \"tensor_live_bytes\": " << totals.live_bytes << ",\n";
  out << "  \"tensor_peak_bytes\": " << totals.peak_bytes << ",\n";
  out << "  \"tensor_allocations\": " << totals.allocations << ",\n";
  out << "  \"tensor_frees\": " << totals.frees << "\n";
  out << "}\n";
  std::printf("wrote %s (disabled span %.1fns, %zu stages, dropped %llu)\n",
              out_path.c_str(), disabled_ns, stages.size(),
              static_cast<unsigned long long>(spans_dropped));
  return alloc_free ? 0 : 1;
}

/// SplitMix64 mixer for the jobs bench: fixed, unbalanced per-job spin
/// lengths without touching any global RNG state.
uint64_t JobsBenchMix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Emits BENCH_jobs.json: the job-graph executor's headline number
/// (DESIGN.md §14). `overlap_speedup` is a staged pipeline (kStages
/// dependent stages over kChains independent chains, unbalanced per-job
/// durations) run two ways on the same executor at size 2: the stage-barrier
/// way (one Run of a flat kChains-job graph per stage, so every stage waits
/// for the slowest job of the previous one) and as one reused job graph
/// whose only edges are along each chain, so stage s of a fast chain
/// overlaps stage s-1 of a slow one and the whole iteration costs one Run
/// instead of kStages. The gain comes from removed synchronisation, so it
/// holds even on a single-core host. The two schedules run as kPairs back-to-back pairs,
/// alternating which goes first, and `overlap_speedup` is the median of the
/// per-pair ratios: a slow stretch of a shared host then slows both sides
/// of a pair instead of deciding which side wins.
/// `graph_matches_barrier_output` asserts both schedules produce identical
/// bytes in every pair; `steady_state_jobs_per_sec` is the graph path's
/// sustained rate across reused generations at its median time.
int RunJobsBench(const std::string& out_path) {
  // --- Overlap microbench: barrier vs graph at executor size 2 ------------
  SetGlobalThreadPoolSize(2);
  jobs::JobExecutor& executor = jobs::GlobalExecutor();
  // Deep and light on purpose: the quantity under test is schedule cost, so
  // the pipeline is deeper than it is wide (12 barriers per iteration for
  // the stage-barrier way, one Run for the graph) and each job spins
  // only a few microseconds. Heavier jobs just dilute both schedules towards
  // the same pure-work floor.
  constexpr int kStages = 12;
  constexpr int kChains = 16;
  constexpr int kIterations = 50;
  const auto spin_for = [](uint64_t iterations) {
    volatile uint64_t sink = 0;
    for (uint64_t i = 0; i < iterations; ++i) {
      sink = sink + i;
    }
  };
  // cells[s][c] = mix(cells[s-1][c] + job constant): every value depends on
  // the whole chain above it, so any scheduling error changes the bytes.
  std::vector<std::array<uint64_t, kChains>> cells(kStages);
  const auto job_body = [&](int stage, int chain) {
    const uint64_t salt =
        JobsBenchMix(static_cast<uint64_t>(stage) * kChains + chain);
    spin_for(salt % 2500);
    const uint64_t upstream = stage == 0 ? 0 : cells[stage - 1][chain];
    cells[stage][chain] = JobsBenchMix(upstream + salt);
  };
  const auto reset_cells = [&] {
    for (auto& stage : cells) {
      stage.fill(0);
    }
  };

  std::array<jobs::JobGraph, kStages> stage_graphs;
  for (int s = 0; s < kStages; ++s) {
    for (int c = 0; c < kChains; ++c) {
      stage_graphs[s].AddJob("bench.jobs.barrier_stage",
                             [&, s, c] { job_body(s, c); });
    }
    stage_graphs[s].Finalize();
  }
  const auto run_barrier = [&] {
    for (int iteration = 0; iteration < kIterations; ++iteration) {
      for (jobs::JobGraph& stage : stage_graphs) {
        executor.Run(&stage);
      }
    }
  };

  jobs::JobGraph graph;
  std::array<jobs::JobId, kChains> previous{};
  for (int s = 0; s < kStages; ++s) {
    for (int c = 0; c < kChains; ++c) {
      const jobs::JobId id =
          graph.AddJob("bench.jobs.stage", [&, s, c] { job_body(s, c); });
      if (s > 0) {
        graph.AddEdge(previous[c], id);
      }
      previous[c] = id;
    }
  }
  graph.Finalize();
  const auto run_graph = [&] {
    for (int iteration = 0; iteration < kIterations; ++iteration) {
      executor.Run(&graph);
    }
  };

  constexpr int kPairs = 21;
  std::vector<double> barrier_s, graph_s, ratios;
  bool outputs_identical = true;
  for (int pair = 0; pair < kPairs; ++pair) {
    double barrier_time = 0.0, graph_time = 0.0;
    std::vector<std::array<uint64_t, kChains>> barrier_out, graph_out;
    for (int turn = 0; turn < 2; ++turn) {
      reset_cells();
      if ((pair + turn) % 2 == 0) {
        barrier_time = BestSeconds(1, run_barrier);
        barrier_out = cells;
      } else {
        graph_time = BestSeconds(1, run_graph);
        graph_out = cells;
      }
    }
    outputs_identical = outputs_identical && barrier_out == graph_out;
    barrier_s.push_back(barrier_time);
    graph_s.push_back(graph_time);
    ratios.push_back(barrier_time / graph_time);
  }
  const auto quantile = [](std::vector<double> values, double q) {
    std::sort(values.begin(), values.end());
    return values[static_cast<size_t>(q * (values.size() - 1) + 0.5)];
  };
  const double overlap_speedup = quantile(ratios, 0.5);
  const double jobs_per_sec = static_cast<double>(kStages) * kChains *
                              kIterations / quantile(graph_s, 0.5);
  std::printf("overlap over %d pairs: barrier=%.4fs graph=%.4fs (median "
              "ratio %.2fx, quartiles %.2f-%.2f, %.0f jobs/s) identical=%s\n",
              kPairs, quantile(barrier_s, 0.5), quantile(graph_s, 0.5),
              overlap_speedup, quantile(ratios, 0.25), quantile(ratios, 0.75),
              jobs_per_sec, outputs_identical ? "yes" : "NO");

  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n";
  WriteHostFields(out);
  out << "  \"config\": {\"stages\": " << kStages
      << ", \"chains\": " << kChains << ", \"iterations\": " << kIterations
      << ", \"pool_threads\": 2},\n";
  out << "  \"overlap_pairs\": " << kPairs << ",\n";
  out << "  \"overlap_median_seconds\": {\"barrier\": "
      << quantile(barrier_s, 0.5) << ", \"graph\": " << quantile(graph_s, 0.5)
      << "},\n";
  out << "  \"overlap_speedup\": " << overlap_speedup << ",\n";
  out << "  \"overlap_speedup_quartiles\": [" << quantile(ratios, 0.25)
      << ", " << quantile(ratios, 0.75) << "],\n";
  out << "  \"steady_state_jobs_per_sec\": " << jobs_per_sec << ",\n";
  out << "  \"graph_matches_barrier_output\": "
      << (outputs_identical ? "true" : "false") << "\n";
  out << "}\n";
  std::printf("wrote %s (overlap %.2fx, identical=%s)\n", out_path.c_str(),
              overlap_speedup, outputs_identical ? "yes" : "NO");
  return outputs_identical ? 0 : 1;
}

}  // namespace
}  // namespace kddn

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--parallel_json", 15) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      return kddn::RunParallelBench(eq != nullptr ? eq + 1
                                                  : "BENCH_parallel.json");
    }
    if (std::strncmp(argv[i], "--serve_json", 12) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      return kddn::RunServeBench(eq != nullptr ? eq + 1
                                               : "BENCH_serve.json");
    }
    if (std::strncmp(argv[i], "--train_json", 12) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      return kddn::RunTrainBench(eq != nullptr ? eq + 1
                                               : "BENCH_train.json");
    }
    if (std::strncmp(argv[i], "--trace_json", 12) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      return kddn::RunTraceBench(eq != nullptr ? eq + 1 : "BENCH_trace.json");
    }
    if (std::strncmp(argv[i], "--jobs_json", 11) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      return kddn::RunJobsBench(eq != nullptr ? eq + 1 : "BENCH_jobs.json");
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
