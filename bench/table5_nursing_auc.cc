// Regenerates Table V: test AUC of all 11 methods on the NURSING corpus for
// the three mortality horizons. Absolute values depend on the synthetic
// substitute; the reproduction targets the paper's ordering and the
// magnitude of the co-attention gain (1–3 points).
//
// --num_threads N sizes the process-wide executor (default: hardware
// concurrency). Training is chunk-reduced, so the AUC table is bitwise
// identical at any thread count; only the reported wall-clock changes.
#include <chrono>

#include "common/flags.h"
#include "common/thread_pool.h"
#include "table56_common.h"

int main(int argc, char** argv) {
  using namespace kddn;
  const Flags flags = Flags::Parse(argc, argv);
  const int num_threads = flags.GetInt("num_threads", 0);
  SetGlobalThreadPoolSize(num_threads);

  bench::PrintHeader("Table V — hospital mortality prediction on NURSING",
                     "paper best: AK-DDN 0.873 / 0.857 / 0.820");
  std::printf("Thread pool: %d thread(s)\n", GlobalThreadPoolSize());

  const std::map<std::string, bench::PaperAuc> paper = {
      {"LDA based word SVM", {{0.756, 0.738, 0.721}}},
      {"LDA based word LR", {{0.811, 0.788, 0.738}}},
      {"BoW + SVM", {{0.815, 0.797, 0.766}}},
      {"LDA based concept SVM", {{0.756, 0.690, 0.669}}},
      {"Combined LDA with SVM", {{0.828, 0.792, 0.733}}},
      {"Text CNN", {{0.846, 0.821, 0.794}}},
      {"Concept CNN", {{0.825, 0.785, 0.796}}},
      {"H CNN", {{0.802, 0.772, 0.751}}},
      {"DKGAM", {{0.811, 0.790, 0.775}}},
      {"BK-DDN", {{0.848, 0.821, 0.805}}},
      {"AK-DDN", {{0.873, 0.857, 0.820}}},
  };

  bench::BenchSetup setup = bench::MakeNursingSetup(/*num_patients=*/2600);
  std::printf("Corpus: %d patients (paper: 6,622), word vocab %d, concept "
              "vocab %d\n\n",
              setup.dataset.num_patients(), setup.dataset.word_vocab().size(),
              setup.dataset.concept_vocab().size());

  core::ExperimentOptions options;
  options.train.epochs = 8;
  options.train.learning_rate = 0.1f;
  options.train.batch_size = 32;
  options.embedding_dim = 20;  // Paper's NURSING embedding size.
  options.num_filters = 50;    // Paper's filter count.
  options.seed = 404;
  const auto start = std::chrono::steady_clock::now();
  bench::RunMethodTable(setup.dataset, paper, options);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  std::printf("\nWall-clock: %.1fs at %d thread(s)\n", elapsed.count(),
              GlobalThreadPoolSize());
  return 0;
}
