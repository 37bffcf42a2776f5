#include "dist/shard_tracker.h"

#include <algorithm>

#include "dist/backoff.h"
#include "util/check.h"

namespace calculon::dist {

ShardTracker::ShardTracker(const ShardTrackerOptions& options)
    : options_(options) {
  CALC_CHECK(options_.shard_size > 0, "shard_size must be positive");
  CALC_CHECK(options_.max_attempts >= 1, "max_attempts must be >= 1");
  CALC_CHECK(options_.first_item <= options_.num_items,
             "first_item past the end of the sweep");
  next_ = options_.first_item;
  resolved_ = options_.first_item;
}

bool ShardTracker::Claim(std::uint64_t shards, ShardRange* out) {
  CALC_CHECK(shards >= 1, "claim at least one shard");
  if (next_ >= options_.num_items) return false;
  // The rest of the sweep when the range would reach past it; the test
  // keeps shards * shard_size from overflowing.
  const std::uint64_t left = options_.num_items - next_;
  out->begin = next_;
  out->end = options_.shard_size <= left / shards
                 ? next_ + shards * options_.shard_size
                 : options_.num_items;
  next_ = out->end;
  return true;
}

void ShardTracker::OnItemDone() { ++resolved_; }

ShardTracker::FailureOutcome ShardTracker::OnShardFailure(
    ShardRange shard, std::uint64_t acked_up_to) {
  FailureOutcome outcome;
  if (acked_up_to >= shard.end) {
    // Every item of the shard was acked before the worker died (it fell
    // over between shards): nothing to retry, nobody to blame.
    return outcome;
  }
  outcome.suspect = std::max(shard.begin, acked_up_to);
  if (!shard.ack_each) {
    // Coalesced: the worker may have died on any item from the suspect
    // on. Blame nobody and find out at once, one ack per item.
    outcome.retry = ShardRange{outcome.suspect, shard.end, true};
    return outcome;
  }
  outcome.attempt = ++attempts_[outcome.suspect];
  if (outcome.attempt >= options_.max_attempts) {
    outcome.quarantined = true;
    quarantined_.insert(outcome.suspect);
    ++resolved_;  // quarantined counts as resolved: the sweep terminates
    outcome.retry = ShardRange{outcome.suspect + 1, shard.end, true};
    outcome.backoff_ms = 0;  // the poison item is gone; no need to wait
  } else {
    outcome.retry = ShardRange{outcome.suspect, shard.end, true};
    outcome.backoff_ms = BackoffDelayMs(
        outcome.attempt, options_.backoff_base_ms, options_.backoff_max_ms);
  }
  return outcome;
}

std::uint64_t ShardTracker::unclaimed() const {
  return options_.num_items - next_;
}

bool ShardTracker::AllResolved() const {
  return resolved_ >= options_.num_items;
}

std::uint64_t ShardTracker::resolved() const {
  return resolved_;
}

std::vector<std::uint64_t> ShardTracker::quarantined() const {
  return {quarantined_.begin(), quarantined_.end()};
}

}  // namespace calculon::dist
