// Unit tests for the non-forking pieces of the supervised fan-out layer:
// NDJSON wire framing, the deterministic backoff schedule, the shard
// tracker's retry/quarantine accounting, and the one job MakeJob builds
// from a spec.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dist/backoff.h"
#include "dist/jobs.h"
#include "dist/shard_tracker.h"
#include "dist/wire.h"
#include "json/json.h"
#include "runner/study.h"
#include "util/error.h"

namespace calculon::dist {
namespace {

// A pipe whose ends close with the fixture.
struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  void CloseWrite() {
    ::close(fds[1]);
    fds[1] = -1;
  }
};

TEST(Wire, FramesRoundTripOverAPipe) {
  Pipe p;
  FrameWriter writer(p.fds[1]);
  json::Value msg;
  msg["type"] = "item";
  msg["index"] = static_cast<std::int64_t>(7);
  msg["rate"] = 123.456789012345678;  // must survive as %.17g
  ASSERT_TRUE(writer.WriteFrame(msg));
  json::Value msg2;
  msg2["type"] = "shard_done";
  ASSERT_TRUE(writer.WriteFrame(msg2));
  p.CloseWrite();

  FrameReader reader(p.fds[0]);
  json::Value out;
  ASSERT_TRUE(reader.ReadFrameBlocking(&out));
  EXPECT_EQ(out.GetString("type", ""), "item");
  EXPECT_EQ(out.GetInt("index", -1), 7);
  EXPECT_EQ(out.at("rate").AsDouble(), 123.456789012345678);  // bit-exact
  ASSERT_TRUE(reader.ReadFrameBlocking(&out));
  EXPECT_EQ(out.GetString("type", ""), "shard_done");
  EXPECT_FALSE(reader.ReadFrameBlocking(&out));  // clean EOF
  EXPECT_TRUE(reader.eof());
  EXPECT_FALSE(reader.truncated());
}

TEST(Wire, DanglingPartialLineReportsTruncation) {
  Pipe p;
  // A writer that died mid-message: bytes but no terminating newline.
  const char partial[] = "{\"type\":\"item\",\"ind";
  ASSERT_EQ(::write(p.fds[1], partial, sizeof(partial) - 1),
            static_cast<ssize_t>(sizeof(partial) - 1));
  p.CloseWrite();

  FrameReader reader(p.fds[0]);
  json::Value out;
  EXPECT_FALSE(reader.ReadFrameBlocking(&out));
  EXPECT_TRUE(reader.eof());
  EXPECT_TRUE(reader.truncated());  // died mid-message, not a clean close
}

TEST(Wire, MalformedFrameThrows) {
  Pipe p;
  const char junk[] = "this is not json\n";
  ASSERT_EQ(::write(p.fds[1], junk, sizeof(junk) - 1),
            static_cast<ssize_t>(sizeof(junk) - 1));
  p.CloseWrite();

  FrameReader reader(p.fds[0]);
  while (reader.Fill() == FrameReader::FillStatus::kData) {
  }
  json::Value out;
  EXPECT_THROW((void)reader.NextFrame(&out), ConfigError);
}

TEST(Wire, ARunIsTakenOnlyOnceAllItsLinesAreBuffered) {
  Pipe p;
  ASSERT_EQ(::fcntl(p.fds[0], F_SETFL, O_NONBLOCK), 0);
  FrameWriter writer(p.fds[1]);
  json::Value header;
  header["type"] = "items";
  header["count"] = 2;
  writer.QueueFrame(header);
  writer.QueueLines("1.5\t\tfirst\n{\"not\": ");  // the second line is cut
  ASSERT_TRUE(writer.Flush());

  FrameReader reader(p.fds[0]);
  ASSERT_EQ(reader.Fill(), FrameReader::FillStatus::kData);
  json::Value out;
  ASSERT_TRUE(reader.NextFrame(&out));
  EXPECT_EQ(out.GetInt("count", 0), 2);
  reader.ExpectLines(2);
  std::string_view lines;
  EXPECT_FALSE(reader.NextLines(&lines));  // one of two lines so far
  EXPECT_FALSE(reader.NextFrame(&out));    // the lines are not frames

  writer.QueueLines("a frame\"}\n");
  writer.QueueFrame(header);
  ASSERT_TRUE(writer.Flush());
  p.CloseWrite();
  ASSERT_EQ(reader.Fill(), FrameReader::FillStatus::kData);
  ASSERT_TRUE(reader.NextLines(&lines));
  EXPECT_EQ(lines, "1.5\t\tfirst\n{\"not\": a frame\"}\n");
  EXPECT_FALSE(reader.NextLines(&lines));  // nothing announced
  ASSERT_TRUE(reader.NextFrame(&out));     // the next header
  reader.ExpectLines(2);
  EXPECT_EQ(reader.Fill(), FrameReader::FillStatus::kEof);
  EXPECT_FALSE(reader.NextLines(&lines));
  // The stream ended at a line boundary, but short of the run's lines.
  EXPECT_TRUE(reader.truncated());
}

TEST(Wire, WriteToClosedPipeReportsDeadPeerNotCrash) {
  Pipe p;
  ::close(p.fds[0]);
  p.fds[0] = -1;
  // The supervisor runs with SIGPIPE ignored; mirror that here so the
  // write surfaces as EPIPE instead of killing the test binary.
  void (*prev)(int) = std::signal(SIGPIPE, SIG_IGN);
  FrameWriter writer(p.fds[1]);
  json::Value msg;
  msg["type"] = "exit";
  EXPECT_FALSE(writer.WriteFrame(msg));
  std::signal(SIGPIPE, prev);
}

TEST(Backoff, ScheduleIsPinnedAndDeterministic) {
  // base 10ms doubling per attempt, saturating at 2000ms: the schedule the
  // docs promise. Pinned exactly so a refactor cannot silently change it.
  EXPECT_EQ(BackoffDelayMs(1, 10, 2000), 10);
  EXPECT_EQ(BackoffDelayMs(2, 10, 2000), 20);
  EXPECT_EQ(BackoffDelayMs(3, 10, 2000), 40);
  EXPECT_EQ(BackoffDelayMs(4, 10, 2000), 80);
  EXPECT_EQ(BackoffDelayMs(8, 10, 2000), 1280);
  EXPECT_EQ(BackoffDelayMs(9, 10, 2000), 2000);   // saturated
  EXPECT_EQ(BackoffDelayMs(100, 10, 2000), 2000); // no overflow
}

TEST(Backoff, NonPositiveAttemptIsTreatedAsFirst) {
  EXPECT_EQ(BackoffDelayMs(0, 10, 2000), 10);
  EXPECT_EQ(BackoffDelayMs(-5, 10, 2000), 10);
}

TEST(ShardTracker, ClaimsContiguousShardsThenRunsDry) {
  ShardTrackerOptions options;
  options.num_items = 10;
  options.shard_size = 4;
  ShardTracker tracker(options);

  ShardRange s;
  ASSERT_TRUE(tracker.Claim(1, &s));
  EXPECT_EQ(s.begin, 0u);
  EXPECT_EQ(s.end, 4u);
  ASSERT_TRUE(tracker.Claim(1, &s));
  EXPECT_EQ(s.begin, 4u);
  EXPECT_EQ(s.end, 8u);
  ASSERT_TRUE(tracker.Claim(1, &s));
  EXPECT_EQ(s.begin, 8u);
  EXPECT_EQ(s.end, 10u);  // final shard is short
  EXPECT_FALSE(tracker.Claim(1, &s));
  EXPECT_EQ(tracker.unclaimed(), 0u);
}

TEST(ShardTracker, ClaimsSeveralShardsAsOneRange) {
  ShardTrackerOptions options;
  options.num_items = 21;
  options.first_item = 1;
  options.shard_size = 4;
  ShardTracker tracker(options);

  ShardRange s;
  ASSERT_TRUE(tracker.Claim(3, &s));
  EXPECT_EQ(s.begin, 1u);
  EXPECT_EQ(s.end, 13u);
  EXPECT_FALSE(s.ack_each);
  ASSERT_TRUE(tracker.Claim(3, &s));
  EXPECT_EQ(s.begin, 13u);
  EXPECT_EQ(s.end, 21u);  // the rest of the sweep: two shards
  EXPECT_FALSE(tracker.Claim(3, &s));

  // A range that would reach past the end of the item space.
  options.first_item = 0;
  options.shard_size = std::uint64_t{1} << 62;
  ShardTracker huge(options);
  ASSERT_TRUE(huge.Claim(8, &s));
  EXPECT_EQ(s.begin, 0u);
  EXPECT_EQ(s.end, 21u);
}

TEST(ShardTracker, FirstItemIsTheResumeWatermark) {
  ShardTrackerOptions options;
  options.num_items = 10;
  options.first_item = 6;
  options.shard_size = 4;
  ShardTracker tracker(options);

  EXPECT_EQ(tracker.resolved(), 6u);  // below the watermark: already done
  EXPECT_EQ(tracker.unclaimed(), 4u);
  ShardRange s;
  ASSERT_TRUE(tracker.Claim(1, &s));
  EXPECT_EQ(s.begin, 6u);
  EXPECT_EQ(s.end, 10u);
  EXPECT_FALSE(tracker.Claim(1, &s));
  for (std::uint64_t i = 6; i < 10; ++i) tracker.OnItemDone();
  EXPECT_TRUE(tracker.AllResolved());
}

TEST(ShardTracker, SuspectIsFirstUnackedItemAndBackoffGrows) {
  ShardTrackerOptions options;
  options.num_items = 8;
  options.shard_size = 8;
  options.max_attempts = 3;
  options.backoff_base_ms = 10;
  options.backoff_max_ms = 2000;
  ShardTracker tracker(options);

  ShardRange s;
  ASSERT_TRUE(tracker.Claim(1, &s));
  s.ack_each = true;  // a retried shard: its first un-acked item is exact
  // Worker acked items 0 and 1, then died on item 2.
  tracker.OnItemDone();
  tracker.OnItemDone();
  auto first = tracker.OnShardFailure(s, 2);
  EXPECT_FALSE(first.quarantined);
  EXPECT_EQ(first.suspect, 2u);
  EXPECT_EQ(first.attempt, 1);
  EXPECT_EQ(first.backoff_ms, 10);
  EXPECT_EQ(first.retry.begin, 2u);  // suspect retried, acked prefix not
  EXPECT_EQ(first.retry.end, 8u);

  // The retry dies on the same item: backoff doubles.
  auto second = tracker.OnShardFailure(first.retry, 2);
  EXPECT_FALSE(second.quarantined);
  EXPECT_EQ(second.attempt, 2);
  EXPECT_EQ(second.backoff_ms, 20);
}

TEST(ShardTracker, QuarantinesAfterMaxAttemptsAndStillTerminates) {
  ShardTrackerOptions options;
  options.num_items = 4;
  options.shard_size = 4;
  options.max_attempts = 3;
  ShardTracker tracker(options);

  ShardRange s;
  ASSERT_TRUE(tracker.Claim(1, &s));
  s.ack_each = true;  // a retried shard: its first un-acked item is exact
  // The poison item is item 0: three straight deaths with nothing acked.
  (void)tracker.OnShardFailure(s, 0);
  (void)tracker.OnShardFailure(s, 0);
  auto last = tracker.OnShardFailure(s, 0);
  EXPECT_TRUE(last.quarantined);
  EXPECT_EQ(last.suspect, 0u);
  EXPECT_EQ(last.attempt, 3);
  EXPECT_EQ(last.backoff_ms, 0);     // poison gone: no reason to wait
  EXPECT_EQ(last.retry.begin, 1u);   // remainder re-dispatches immediately
  EXPECT_EQ(last.retry.end, 4u);

  EXPECT_EQ(tracker.quarantined(), (std::vector<std::uint64_t>{0}));
  for (std::uint64_t i = 1; i < 4; ++i) tracker.OnItemDone();
  EXPECT_TRUE(tracker.AllResolved());  // quarantine counts as resolved
}

TEST(ShardTracker, CoalescedShardFailureChargesNoAttempt) {
  ShardTrackerOptions options;
  options.num_items = 8;
  options.shard_size = 8;
  options.max_attempts = 1;  // any charge would quarantine at once
  options.backoff_base_ms = 10;
  ShardTracker tracker(options);

  ShardRange s;
  ASSERT_TRUE(tracker.Claim(1, &s));
  EXPECT_FALSE(s.ack_each);  // fresh shards are coalesced
  // Items 0 and 1 were acked; the worker may have died on any of 2..7.
  tracker.OnItemDone();
  tracker.OnItemDone();
  const auto coalesced = tracker.OnShardFailure(s, 2);
  EXPECT_FALSE(coalesced.quarantined);
  EXPECT_EQ(coalesced.attempt, 0);     // nobody charged
  EXPECT_EQ(coalesced.backoff_ms, 0);  // retried at once
  EXPECT_EQ(coalesced.retry.begin, 2u);
  EXPECT_EQ(coalesced.retry.end, 8u);
  EXPECT_TRUE(coalesced.retry.ack_each);
  EXPECT_TRUE(tracker.quarantined().empty());

  // The ack_each retry dies after acking item 2: item 3 is exactly the
  // item it was evaluating, and is charged its first (and last) attempt.
  tracker.OnItemDone();
  const auto exact = tracker.OnShardFailure(coalesced.retry, 3);
  EXPECT_TRUE(exact.quarantined);
  EXPECT_EQ(exact.suspect, 3u);
  EXPECT_EQ(exact.attempt, 1);
  EXPECT_EQ(exact.retry.begin, 4u);
  EXPECT_EQ(exact.retry.end, 8u);
  EXPECT_TRUE(exact.retry.ack_each);
  EXPECT_EQ(tracker.quarantined(), (std::vector<std::uint64_t>{3}));
}

TEST(ShardTracker, DeathBetweenShardsBlamesNobody) {
  ShardTrackerOptions options;
  options.num_items = 4;
  options.shard_size = 4;
  ShardTracker tracker(options);

  ShardRange s;
  ASSERT_TRUE(tracker.Claim(1, &s));
  for (std::uint64_t i = 0; i < 4; ++i) tracker.OnItemDone();
  // Every item acked before the death: nothing to retry.
  auto outcome = tracker.OnShardFailure(s, 4);
  EXPECT_FALSE(outcome.quarantined);
  EXPECT_TRUE(outcome.retry.empty());
  EXPECT_TRUE(tracker.AllResolved());
}

// Drivers build their jobs from the inputs they hold; a spec describes
// only a study's job, and every other kind is refused.
TEST(DistJobs, MakeJobBuildsOnlyStudyJobs) {
  const Study study = Study::FromJson(json::Parse(R"({
    "application": "megatron_22b",
    "system": "a100_80g",
    "num_procs": 64,
    "base_execution": {"batch_size": 64},
    "sweep": {"tensor_par": [1, 8], "pipeline_par": [1, 2],
              "data_par": "auto"}
  })"));
  json::Value spec;
  spec["job"] = "study";
  spec["spec"] = study.ToJson();
  EXPECT_EQ(MakeJob(spec)->num_items(), study.Enumerate().size());
  for (const char* kind : {"exec_search", "audit", "no-such-job", ""}) {
    spec["job"] = kind;
    std::string what = "no ConfigError";
    try {
      (void)MakeJob(spec);
    } catch (const ConfigError& e) {
      what = e.what();
    }
    EXPECT_NE(what.find("unknown job kind"), std::string::npos)
        << kind << ": " << what;
  }
}

}  // namespace
}  // namespace calculon::dist
