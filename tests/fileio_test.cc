// Atomic checkpoint-write tests: WriteFileAtomic's temp+fsync+rename
// contract, and what a resumed study sees after a torn or interrupted
// checkpoint write.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <string_view>

#include "runner/study.h"
#include "util/error.h"
#include "util/fileio.h"

namespace calculon {
namespace {

namespace fs = std::filesystem;

class FileIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("calculon_fileio_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST_F(FileIoTest, WritesAndOverwritesWholeContents) {
  const std::string path = Path("ckpt.json");
  WriteFileAtomic(path, "first version\n");
  EXPECT_EQ(ReadFileToString(path), "first version\n");
  // Overwrite with SHORTER contents: a non-atomic in-place write would
  // leave a tail of the old file behind.
  WriteFileAtomic(path, "v2\n");
  EXPECT_EQ(ReadFileToString(path), "v2\n");
}

TEST_F(FileIoTest, LeavesNoTemporaryBehind) {
  WriteFileAtomic(Path("ckpt.json"), "data\n");
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    ++entries;
    EXPECT_EQ(e.path().filename().string(), "ckpt.json");
  }
  EXPECT_EQ(entries, 1u);
}

TEST_F(FileIoTest, FailedWriteLeavesDestinationUntouched) {
  const std::string path = Path("ckpt.json");
  WriteFileAtomic(path, "good\n");
  // A destination inside a directory that does not exist cannot even
  // create its temp file; the existing good file must survive.
  EXPECT_THROW(WriteFileAtomic(Path("no_such_dir/ckpt.json"), "bad\n"),
               ConfigError);
  EXPECT_EQ(ReadFileToString(path), "good\n");
}

TEST_F(FileIoTest, StaleTempFromAKilledWriterIsIgnored) {
  // A writer SIGKILLed mid-write leaves <path>.tmp.<pid> behind. It must
  // never shadow or corrupt the real checkpoint path.
  const std::string path = Path("ckpt.json");
  WriteFileAtomic(path + ".tmp.99999", "torn garbage");
  WriteFileAtomic(path, "real checkpoint\n");
  EXPECT_EQ(ReadFileToString(path), "real checkpoint\n");
}

TEST_F(FileIoTest, PiecesWriteExactlyTheirConcatenation) {
  const std::string path = Path("ckpt.json");
  const std::string rows(1 << 20, 'r');  // larger than one write may take
  WriteFileAtomic(path, {"{\"rows\": [", "", rows, "", "]}\n"});
  EXPECT_EQ(ReadFileToString(path), "{\"rows\": [" + rows + "]}\n");
  // A lone empty piece, and the one-piece call with nothing in it, each
  // replace the file with an empty one.
  WriteFileAtomic(path, {std::string_view()});
  EXPECT_EQ(ReadFileToString(path), "");
  WriteFileAtomic(path, "x");
  WriteFileAtomic(path, "");
  EXPECT_EQ(ReadFileToString(path), "");
}

// The names in the test directory.
std::set<std::string> Entries(const fs::path& dir) {
  std::set<std::string> names;
  for (const auto& e : fs::directory_iterator(dir)) {
    names.insert(e.path().filename().string());
  }
  return names;
}

TEST_F(FileIoTest, FailedPiecesWriteLeavesNeitherDestinationNorTemporary) {
  // Into a directory that does not exist: no temp file can be made.
  EXPECT_THROW(
      WriteFileAtomic(Path("no_such_dir/ckpt.json"), {"head", "rows", "tail"}),
      ConfigError);
  EXPECT_FALSE(fs::exists(Path("no_such_dir")));
  EXPECT_TRUE(Entries(dir_).empty());
  // Over a directory: the temp file is written, the rename fails, and the
  // temp file is removed again.
  fs::create_directories(Path("taken/inside"));
  EXPECT_THROW(WriteFileAtomic(Path("taken"), {"head", "rows", "tail"}),
               ConfigError);
  EXPECT_EQ(Entries(dir_), std::set<std::string>{"taken"});
  EXPECT_EQ(Entries(Path("taken")), std::set<std::string>{"inside"});
}

TEST_F(FileIoTest, FailedSyncClosesTheTemporaryAndNamesItsError) {
  // A FIFO where the temp file goes: the open and the write succeed (a
  // reader holds the other end), and fsync fails with EINVAL, as a FIFO
  // cannot be synced. The temp file's descriptor is closed all the same:
  // the lowest free descriptor is the same before and after.
  const std::string path = Path("ckpt.json");
  WriteFileAtomic(path, "good\n");
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<int>(::getpid()));
  ASSERT_EQ(::mkfifo(tmp.c_str(), 0644), 0);
  const int reader = ::open(tmp.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_NE(reader, -1);
  const int free_before = ::dup(reader);
  ::close(free_before);
  try {
    WriteFileAtomic(path, "bad\n");
    ADD_FAILURE() << "a FIFO was synced";
  } catch (const ConfigError& e) {
    EXPECT_EQ(std::string(e.what()),
              "cannot sync " + tmp + ": " + std::strerror(EINVAL));
  }
  const int free_after = ::dup(reader);
  ::close(free_after);
  ::close(reader);
  EXPECT_EQ(free_after, free_before) << "the temp file's descriptor leaked";
  EXPECT_EQ(ReadFileToString(path), "good\n");
  EXPECT_EQ(Entries(dir_), std::set<std::string>{"ckpt.json"});
}

json::Value TinyStudySpec() {
  return json::Parse(R"({
    "application": "megatron_22b",
    "system": "a100_80g",
    "num_procs": 8,
    "base_execution": {"batch_size": 8},
    "sweep": {"tensor_par": [1, 2, 4, 8]}
  })");
}

TEST_F(FileIoTest, StudyCheckpointRoundTripsThroughAtomicWrite) {
  const Study study = Study::FromJson(TinyStudySpec());
  StudyRunOptions options;
  options.checkpoint_path = Path("study.ckpt");
  options.checkpoint_every = 1;
  const StudyRun run = study.RunResilient(options);
  ASSERT_EQ(run.csv_rows.size(), 4u);

  StudyRun resumed;
  LoadStudyCheckpoint(options.checkpoint_path, study.Fingerprint(), &resumed);
  EXPECT_EQ(resumed.csv_rows, run.csv_rows);
  EXPECT_EQ(resumed.best.found, run.best.found);
  EXPECT_EQ(resumed.best.row, run.best.row);
}

TEST_F(FileIoTest, TornCheckpointFailsLoudlyOnResume) {
  const Study study = Study::FromJson(TinyStudySpec());
  StudyRunOptions options;
  options.checkpoint_path = Path("study.ckpt");
  const StudyRun run = study.RunResilient(options);
  ASSERT_EQ(run.csv_rows.size(), 4u);

  // Simulate the torn write WriteFileAtomic exists to prevent: chop the
  // journal mid-JSON. Resume must refuse it (ConfigError), never silently
  // continue from a half-parsed watermark.
  const std::string whole = ReadFileToString(options.checkpoint_path);
  ASSERT_GT(whole.size(), 10u);
  std::ofstream torn(options.checkpoint_path,
                     std::ios::binary | std::ios::trunc);
  torn.write(whole.data(), static_cast<std::streamsize>(whole.size() / 2));
  torn.close();

  StudyRun resumed;
  EXPECT_THROW(
      LoadStudyCheckpoint(options.checkpoint_path, study.Fingerprint(),
                          &resumed),
      ConfigError);
}

TEST_F(FileIoTest, CheckpointForADifferentStudyIsRejected) {
  const Study study = Study::FromJson(TinyStudySpec());
  StudyRunOptions options;
  options.checkpoint_path = Path("study.ckpt");
  (void)study.RunResilient(options);

  StudyRun resumed;
  EXPECT_THROW(LoadStudyCheckpoint(options.checkpoint_path,
                                   "some-other-fingerprint", &resumed),
               ConfigError);
}

}  // namespace
}  // namespace calculon
