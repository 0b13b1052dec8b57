// Regenerates Table VI: test AUC of all 11 methods on the RAD corpus
// (radiology/Echo/ECG notes) for the three mortality horizons. The paper
// uses embedding size 100 on RAD; we use 24 to keep the CPU-only bench under
// a few minutes — the method ordering, not the absolute AUC, is the target.
//
// --num_threads N sizes the process-wide executor; the table is bitwise
// identical at any thread count.
#include <chrono>

#include "common/flags.h"
#include "common/thread_pool.h"
#include "table56_common.h"

int main(int argc, char** argv) {
  using namespace kddn;
  const Flags flags = Flags::Parse(argc, argv);
  SetGlobalThreadPoolSize(flags.GetInt("num_threads", 0));

  bench::PrintHeader("Table VI — hospital mortality prediction on RAD",
                     "paper best: AK-DDN 0.880 / 0.873 / 0.862");
  std::printf("Thread pool: %d thread(s)\n", GlobalThreadPoolSize());

  const std::map<std::string, bench::PaperAuc> paper = {
      {"LDA based word SVM", {{0.753, 0.749, 0.745}}},
      {"LDA based word LR", {{0.777, 0.766, 0.772}}},
      {"BoW + SVM", {{0.765, 0.789, 0.785}}},
      {"LDA based concept SVM", {{0.723, 0.712, 0.721}}},
      {"Combined LDA with SVM", {{0.802, 0.782, 0.774}}},
      {"Text CNN", {{0.847, 0.851, 0.824}}},
      {"Concept CNN", {{0.840, 0.836, 0.832}}},
      {"H CNN", {{0.790, 0.804, 0.797}}},
      {"DKGAM", {{0.850, 0.768, 0.816}}},
      {"BK-DDN", {{0.863, 0.867, 0.856}}},
      {"AK-DDN", {{0.880, 0.873, 0.862}}},
  };

  bench::BenchSetup setup = bench::MakeRadSetup(/*num_patients=*/2000);
  std::printf("Corpus: %d patients (paper: 35,263), word vocab %d, concept "
              "vocab %d\n\n",
              setup.dataset.num_patients(), setup.dataset.word_vocab().size(),
              setup.dataset.concept_vocab().size());

  core::ExperimentOptions options;
  options.train.epochs = 6;
  options.train.learning_rate = 0.1f;
  options.train.batch_size = 32;
  options.embedding_dim = 24;  // Paper: 100; scaled for CPU runtime.
  options.num_filters = 50;
  options.seed = 505;
  const auto start = std::chrono::steady_clock::now();
  bench::RunMethodTable(setup.dataset, paper, options);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  std::printf("\nWall-clock: %.1fs at %d thread(s)\n", elapsed.count(),
              GlobalThreadPoolSize());
  return 0;
}
