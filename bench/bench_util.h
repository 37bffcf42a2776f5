// Shared helpers for the benchmark harness binaries.
//
// Each binary regenerates one table or figure of the paper. By default the
// sweeps are sized so that the whole harness completes in minutes on one
// core; set CALCULON_FULL=1 for the paper-fidelity grids (recorded in
// EXPERIMENTS.md) and CALCULON_THREADS=N to size the thread pool.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "search/exec_search.h"
#include "search/scaling.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/units.h"

namespace calculon::bench {

inline bool FullFidelity() {
  const char* v = std::getenv("CALCULON_FULL");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

inline unsigned Threads() {
  if (const char* v = std::getenv("CALCULON_THREADS")) {
    const int n = std::atoi(v);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return 0;  // hardware concurrency
}

// A compact label like "(8,64,8) m=1 i=2 rc=full sp+ shard".
inline std::string StrategyLabel(const Execution& e) {
  std::string s = StrFormat(
      "(%lld,%lld,%lld) m=%lld i=%lld rc=%s",
      static_cast<long long>(e.tensor_par),
      static_cast<long long>(e.pipeline_par),
      static_cast<long long>(e.data_par),
      static_cast<long long>(e.microbatch),
      static_cast<long long>(e.pp_interleaving), ToString(e.recompute));
  if (e.seq_par) s += " sp";
  if (e.seq_par_ag_redo) s += "+redo";
  if (e.optimizer_sharding) s += " shard";
  if (e.dp_overlap) s += " dpo";
  if (e.tp_overlap != TpOverlap::kNone) {
    s += StrFormat(" tpo=%s", ToString(e.tp_overlap));
  }
  if (e.fused_activation) s += " fused";
  if (e.any_offload()) s += " off";
  return s;
}

// The reduced sweep used by the scaling/system studies when not in full
// fidelity: the knobs that matter for the envelope, with the redundant
// corners trimmed.
inline SearchSpace ReducedSpace(bool with_offload) {
  SearchSpace s;
  s.tp_comm = {{false, false, false}, {true, true, true}};
  s.tp_overlap = {TpOverlap::kRing};
  s.fused_activation = {true};
  s.dp_overlap = {true};
  s.optimizer_sharding = {true};
  s.pp_rs_ag = {false};
  s.max_microbatch = 8;
  s.offload = with_offload
                  ? std::vector<SearchSpace::OffloadVariant>{
                        {false, false, false}, {true, true, true}}
                  : std::vector<SearchSpace::OffloadVariant>{
                        {false, false, false}};
  return s;
}

// System sizes for the Fig. 7/10/11 sweeps. Full fidelity uses every
// multiple of 8 up to 8192 (the paper's grid); the default combines a
// coarse envelope (multiples of 512) with a dense multiples-of-8 window
// around 4096 where the efficiency cliffs are visible.
std::vector<std::int64_t> ScalingSizes();

// Runs a system-size sweep and prints sample rate + relative scaling per
// size (shared by the Fig. 7 and Fig. 10 harnesses). Relative scaling is
// normalized to the best per-GPU rate observed in the sweep.
std::vector<ScalingPoint> SweepAndPrint(const Application& app,
                                        const System& base,
                                        const SearchSpace& space,
                                        const std::vector<std::int64_t>& sizes,
                                        ThreadPool& pool);

}  // namespace calculon::bench
