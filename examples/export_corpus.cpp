// Exports the synthetic corpus and its ontology to flat files so external
// tooling (notebooks, other model implementations) can consume exactly the
// same data:
//
//   ./build/examples/export_corpus --corpus=rad --patients=500
//       --out=corpus.jsonl --kb-out=ontology.tsv
//
// The JSONL carries one patient per line (id, age, outcome, disease CUIs,
// per-disease trajectories, aggregated note text); the TSV carries the full
// UMLS-lite knowledge base. Both round-trip through the library readers.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "common/flags.h"
#include "kb/kb_io.h"
#include "synth/corpus_io.h"

int main(int argc, char** argv) {
  using namespace kddn;
  const Flags flags = Flags::Parse(argc, argv);
  const std::string corpus = flags.GetString("corpus", "nursing");
  const std::string out_path = flags.GetString("out", "corpus.jsonl");
  const std::string kb_path = flags.GetString("kb-out", "ontology.tsv");

  kb::KnowledgeBase knowledge = kb::KnowledgeBase::BuildDefault();
  synth::CohortConfig config;
  config.kind = corpus == "rad" ? synth::CorpusKind::kRad
                                : synth::CorpusKind::kNursing;
  config.num_patients = flags.GetInt("patients", 500);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const synth::Cohort cohort = synth::Cohort::Generate(config, knowledge);

  {
    std::ofstream out(out_path);
    KDDN_CHECK(out.is_open()) << "cannot open " << out_path;
    synth::WriteCohortJsonl(cohort, out);
  }
  kb::WriteKnowledgeBaseFile(knowledge, kb_path);

  std::printf("wrote %zu patients to %s and %d concepts to %s\n",
              cohort.patients().size(), out_path.c_str(), knowledge.size(),
              kb_path.c_str());

  // Round-trip sanity check, so the example doubles as a smoke test.
  std::ifstream in(out_path);
  const auto records = synth::ReadCohortJsonl(in);
  const kb::KnowledgeBase restored = kb::ReadKnowledgeBaseFile(kb_path);
  KDDN_CHECK_EQ(records.size(), cohort.patients().size());
  KDDN_CHECK_EQ(restored.size(), knowledge.size());
  std::printf("round-trip verified: %zu records, %d concepts\n",
              records.size(), restored.size());
  return 0;
}
