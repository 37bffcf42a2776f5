// Shard bookkeeping for the supervised worker pool: which items are
// dispatched, acked, retried, or quarantined.
//
// The tracker is pure accounting — no I/O, no clocks, no processes — so
// the retry/backoff/quarantine semantics are testable without forking
// anything. The supervisor drives it from its single-threaded event loop,
// the only place it is reached, so it owns no lock.
//
// Failure model: workers ack items in order within a shard. A fresh shard
// is *coalesced*: the worker writes its acks in batches, so when it dies
// it may have finished items past the first un-acked one. Such a failure
// charges nobody; the un-acked rest is re-dispatched at once as an
// *ack_each* shard, whose worker writes every ack as the item finishes.
// When an ack_each shard's worker dies, the *suspect* is its first
// un-acked item — exactly the item it was evaluating. The suspect's
// attempt count increments and the rest retries after a backoff; after
// max_attempts the item is quarantined (a poison candidate: deterministic
// process faults re-fire on every retry, so retrying forever would never
// converge) and the remainder of the shard is re-dispatched. An item is
// thus quarantined only after failures in which it was exactly the first
// un-acked item. Quarantined items count as resolved, which guarantees
// the sweep always terminates.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

namespace calculon::dist {

// A contiguous, half-open range of sweep items: what a worker is given at
// once, one or more shards.
struct ShardRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  // A retry: the worker acks every item as it finishes (see above).
  bool ack_each = false;

  [[nodiscard]] bool empty() const { return begin >= end; }
};

struct ShardTrackerOptions {
  std::uint64_t num_items = 0;
  // Dispatch starts here (checkpoint-resume watermark); items below it
  // count as already resolved.
  std::uint64_t first_item = 0;
  std::uint64_t shard_size = 16;
  // Attempts per suspect item before it is quarantined (>= 1).
  int max_attempts = 3;
  std::int64_t backoff_base_ms = 10;
  std::int64_t backoff_max_ms = 2000;
};

class ShardTracker {
 public:
  explicit ShardTracker(const ShardTrackerOptions& options);

  // Claims the next `shards` never-dispatched shards (>= 1) as one range,
  // shorter at the end of the sweep. Returns false when the whole sweep
  // has been handed out (retries are the supervisor's re-dispatch queue,
  // not the tracker's).
  [[nodiscard]] bool Claim(std::uint64_t shards, ShardRange* out);

  // One item's result was received (acked).
  void OnItemDone();

  // Outcome of a worker failure on a shard.
  struct FailureOutcome {
    bool quarantined = false;    // the suspect hit max_attempts
    std::uint64_t suspect = 0;   // first un-acked item of the shard
    // The suspect's attempt count so far; 0 when nobody was charged (a
    // coalesced shard).
    int attempt = 0;
    std::int64_t backoff_ms = 0; // delay before `retry` (0 on quarantine)
    ShardRange retry;            // what to re-dispatch (may be empty)
  };

  // The worker owning `shard` died or hung after acking items
  // [shard.begin, acked_up_to). Returns the retry decision, always an
  // ack_each shard; quarantined items are marked resolved here.
  [[nodiscard]] FailureOutcome OnShardFailure(ShardRange shard,
                                              std::uint64_t acked_up_to);

  // Every item acked or quarantined.
  [[nodiscard]] bool AllResolved() const;

  // Items never yet dispatched (the remaining claimable span). Lets the
  // supervisor size its pool refill without consuming a claim.
  [[nodiscard]] std::uint64_t unclaimed() const;

  [[nodiscard]] std::uint64_t resolved() const;
  [[nodiscard]] std::vector<std::uint64_t> quarantined() const;

 private:
  const ShardTrackerOptions options_;

  std::uint64_t next_ = 0;  // dispatch cursor
  std::uint64_t resolved_ = 0;
  std::map<std::uint64_t, int> attempts_;
  std::set<std::uint64_t> quarantined_;
};

}  // namespace calculon::dist
