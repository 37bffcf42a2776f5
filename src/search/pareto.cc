#include "search/pareto.h"

#include <algorithm>

namespace calculon {

ParetoPoint MakeParetoPoint(const Stats& stats) {
  return {stats.batch_time, stats.tier1.Total(), stats.tier2.Total()};
}

bool Dominates(const ParetoPoint& a, const ParetoPoint& b) {
  const bool no_worse = a.batch_time <= b.batch_time &&
                        a.tier1_bytes <= b.tier1_bytes &&
                        a.tier2_bytes <= b.tier2_bytes;
  const bool strictly_better = a.batch_time < b.batch_time ||
                               a.tier1_bytes < b.tier1_bytes ||
                               a.tier2_bytes < b.tier2_bytes;
  return no_worse && strictly_better;
}

bool ParetoFront::Insert(const Execution& exec, const Stats& stats) {
  const ParetoPoint p = MakeParetoPoint(stats);
  for (const SearchEntry& existing : entries_) {
    const ParetoPoint q = MakeParetoPoint(existing.stats);
    // Reject dominated newcomers (duplicates count as dominated).
    if (Dominates(q, p) || (!Dominates(p, q) && q.batch_time == p.batch_time &&
                            q.tier1_bytes == p.tier1_bytes &&
                            q.tier2_bytes == p.tier2_bytes)) {
      return false;
    }
  }
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [&](const SearchEntry& existing) {
                                  return Dominates(
                                      p, MakeParetoPoint(existing.stats));
                                }),
                 entries_.end());
  entries_.push_back({exec, stats});
  return true;
}

std::vector<SearchEntry> ParetoFront::Sorted() const {
  std::vector<SearchEntry> sorted = entries_;
  std::sort(sorted.begin(), sorted.end(),
            [](const SearchEntry& a, const SearchEntry& b) {
              return a.stats.batch_time < b.stats.batch_time;
            });
  return sorted;
}

std::vector<SearchEntry> ExtractParetoFront(
    const std::vector<SearchEntry>& entries) {
  ParetoFront front;
  for (const SearchEntry& entry : entries) {
    front.Insert(entry.exec, entry.stats);
  }
  return front.Sorted();
}

}  // namespace calculon
