// Fig. 7: LLM training scalability (no offloading) for GPT-3 175B,
// Turing-NLG 530B and Megatron-1T on up to 8,192 GPUs. For each system
// size the full execution space is searched and the best performer plotted
// relative to perfect scaling; "efficiency cliffs" appear where the model
// shape maps poorly onto the processor count.
//
// Default grid: a coarse envelope plus a dense multiples-of-8 window with
// the reduced optimization space of bench_util.h.
#include <cstdio>

#include "bench/bench_util.h"
#include "hw/presets.h"
#include "models/presets.h"
#include "search/scaling.h"

int main() {
  using namespace calculon;
  ThreadPool pool(bench::Threads());
  const auto sizes = bench::ScalingSizes();
  presets::SystemOptions o;
  const System base = presets::H100(o);  // no offload tier

  std::printf("Fig. 7: LLM training scalability, no offloading "
              "(coarse envelope + dense window near 4096; CALCULON_FULL=1 for\n"
              "the paper's full multiples-of-8 grid)\n\n");
  for (const char* name : {"gpt3_175b", "turing_530b", "megatron_1t"}) {
    std::printf("=== %s ===\n", name);
    bench::SweepAndPrint(presets::ApplicationByName(name), base,
                         bench::ReducedSpace(false), sizes, pool);
  }
  std::printf(
      "paper reference: the envelope rises with size but top-performer\n"
      "variability grows; Turing-NLG (105 blocks) maps worst; some sizes\n"
      "cannot run the larger models at all (zero relative performance).\n");
  return 0;
}
