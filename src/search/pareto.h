// Pareto-front extraction over execution strategies.
//
// Section 4.2 points out that with all optimizations enabled one can pick
// a configuration that minimizes time OR memory; more generally the search
// space trades batch time against tier-1 memory and offload resources.
// This module maintains the set of non-dominated strategies.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "search/exec_search.h"

namespace calculon {

// The objectives (all minimized).
struct ParetoPoint {
  Seconds batch_time;
  Bytes tier1_bytes;
  Bytes tier2_bytes;
};

[[nodiscard]] ParetoPoint MakeParetoPoint(const Stats& stats);

// a dominates b: no objective worse, at least one strictly better.
[[nodiscard]] bool Dominates(const ParetoPoint& a, const ParetoPoint& b);

// Incrementally maintained non-dominated set.
class ParetoFront {
 public:
  // Inserts (exec, stats) if non-dominated, copying it only then; evicts
  // entries the newcomer dominates. Returns true when it was added.
  bool Insert(const Execution& exec, const Stats& stats);

  // Entries sorted by ascending batch time.
  [[nodiscard]] std::vector<SearchEntry> Sorted() const;
  // Moves the entries out in insertion order.
  [[nodiscard]] std::vector<SearchEntry> TakeEntries() && {
    return std::move(entries_);
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

 private:
  std::vector<SearchEntry> entries_;
};

// Convenience: the front of an arbitrary strategy list.
[[nodiscard]] std::vector<SearchEntry> ExtractParetoFront(
    const std::vector<SearchEntry>& entries);

}  // namespace calculon
