// The three benchmark workloads. Each is a fixed pool of answers (the
// inputs the golden file records); a timed run answers seed-shuffled whole
// rounds of the pool in a closed loop: one caller, and the next answer
// starts only after the previous one has finished.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "json/json.h"
#include "search/exec_search.h"

namespace perfbench {

struct ItemOutput {
  std::string digest;            // hex digest of the answer's outputs
  std::uint64_t candidates = 0;  // candidates the answer evaluated
  bool hard_failure = false;     // threw, or a failure/quarantine recorded
  std::string note;              // failure description
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual unsigned threads() const = 0;
  [[nodiscard]] virtual int workers() const { return 0; }

  // Builds everything the loop needs: presets and specs, search triples,
  // the thread pool, and (for supervised runs) one fork + ready of the
  // workers. Called several times to time set-up; the last build is kept.
  virtual void Setup() = 0;

  // Items [0, pool_size()) make up a timed round. Items past it (up to
  // num_items()) are answered only as the warm-up; the first of them is
  // the warm-up when there is one.
  [[nodiscard]] virtual std::size_t pool_size() const = 0;
  [[nodiscard]] virtual std::size_t num_items() const { return pool_size(); }
  [[nodiscard]] virtual std::string ItemKey(std::size_t item) const = 0;
  // One answer. Exceptions are the caller's to count as failures.
  [[nodiscard]] virtual ItemOutput RunItem(std::size_t item) = 0;
  // Digest of an independent reference computation of the same answer,
  // when the workload has one ("" otherwise): the supervised study's
  // in-process Study::RunResilient CSV.
  [[nodiscard]] virtual std::string ReferenceDigest(std::size_t) { return {}; }

  // Whole rounds a timed run makes at least; the tail percentile is fixed
  // from rounds * pool_size so runs of different length compare.
  [[nodiscard]] virtual int min_rounds() const = 0;
};

// `work_dir` is a scratch directory inside the checkout (checkpoints).
[[nodiscard]] std::unique_ptr<Workload> MakeWorkload(
    const std::string& name, const std::string& work_dir);
[[nodiscard]] std::vector<std::string> WorkloadNames();

[[nodiscard]] unsigned Nproc();
// Supervised workers of study_supervised: nproc - 1 (at least 1).
[[nodiscard]] int StudyWorkers();
// The reduced sweep the Table 3 harness uses: the knobs that matter for
// the envelope, redundant corners trimmed, offload variants on request.
[[nodiscard]] calculon::SearchSpace ReducedSpace(bool with_offload);
// Digest of a search's top-k (executions and Stats as lossless JSON), its
// evaluated/feasible counts, and its 10-bin sample-rate histogram.
[[nodiscard]] std::string SearchDigest(const calculon::SearchResult& r);
// study_supervised's study spec at global batch `batch`.
[[nodiscard]] calculon::json::Value StudySpec(std::int64_t batch);
// A `rows`-row study of the same application and system, for timing
// worker fork + ready with one single-row shard per worker.
[[nodiscard]] calculon::json::Value StartupSpec(int rows);

// The Table 2 validation: mean |error| (percent) of the model's batch time
// against the measured Selene times, over the 8 published cases.
[[nodiscard]] double ModelErrorPct();

}  // namespace perfbench
