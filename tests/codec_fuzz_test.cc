// Seeded mutation fuzzing of the code that reads untrusted bytes: the
// JSON codec (spec files, checkpoint journals, worker frames), the worker
// frame reader, the study, exec-search and audit result line decoders, the spec
// loaders, a study resumed from its checkpoint and the supervisor's
// metrics registry. The corpus is the shipped configs plus recorded study
// and exec-search runs (a header frame and its result lines), audit result
// lines, a partial study checkpoint and a worker's metrics snapshot; bit
// flips, byte inserts and deletes,
// truncations, splices and number-token swaps mutate it. A fixed seed and
// iteration budget keep the test deterministic and quick; the sanitizer
// jobs run it like every other test.
//
// The contract:
//   * json::Parse returns a value or throws ConfigError;
//   * FrameReader, fed a byte stream in random chunk sizes, yields the
//     frames, ConfigErrors and whole runs the complete stream splits into,
//     reports truncated() exactly when the stream ends mid-line or short
//     of a run's announced lines, and never blocks;
//   * StudyRowFromLine returns a row whose rate is finite and positive, or
//     absent, or throws ConfigError;
//   * an exec-search line decodes to a sweep whose best list is a top-k
//     list (IsTopKList), or throws ConfigError: a best list out of order
//     or longer than top_k, and an entry that does not evaluate, are
//     refused;
//   * an audit line (whose report is also the audit journal's entry)
//     decodes to a report and failures whose counts and items are
//     non-negative int64s, or throws ConfigError;
//   * Parse(Dump(v)) gives back v, every double bit for bit;
//   * a spec loader (Application, System, Execution, Study FromJson)
//     returns a spec or throws ConfigError, and the model evaluates what
//     it returns to a value or an infeasibility reason: never undefined
//     behaviour, an abort or a hang;
//   * a study resumed from a checkpoint throws ConfigError, or completes
//     with a best row that exists and is the row the study enumerates;
//   * a worker's metrics snapshot decodes, with every count in [0, 2^63)
//     and each histogram's count its bucket sum, and folds into the
//     supervisor's registry, or throws ConfigError, and the registry stays
//     usable.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/audit.h"
#include "core/perf_model.h"
#include "dist/jobs.h"
#include "dist/wire.h"
#include "hw/presets.h"
#include "json/json.h"
#include "models/presets.h"
#include "obs/metrics.h"
#include "runner/study.h"
#include "search/exec_search.h"
#include "testing/fault_injection.h"
#include "util/error.h"
#include "util/run_context.h"

namespace calculon {
namespace {

namespace fs = std::filesystem;

// splitmix64: a portable, seedable generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  // Uniform in [0, n), n > 0.
  std::size_t Below(std::size_t n) {
    return static_cast<std::size_t>(Next() % n);
  }

 private:
  std::uint64_t state_;
};

// What a study worker and an exec-search worker write, recorded.
struct Recording {
  // One entry per frame as it travels: a run is its header together with
  // its result lines.
  std::vector<std::string> wire;
  // Every line of `wire` that is a JSON document: the frames, the run
  // headers and the exec-search results.
  std::vector<std::string> documents;
  // The study result lines, without their '\n'.
  std::vector<std::string> study_lines;
};

// The runs carrying the first `count` results of `job`, as a worker writes
// them: runs of one result (a retried shard's), two and three in turn.
// Each result line also goes to `results`.
void RecordRuns(dist::Job& job, std::uint64_t count,
                std::vector<std::string>* results, Recording* recording) {
  const std::uint64_t n = std::min(count, job.num_items());
  for (std::uint64_t begin = 0, size = 1; begin < n;
       begin += size, size = size % 3 + 1) {
    const std::uint64_t end = std::min(begin + size, n);
    json::Value header;
    header["type"] = "items";
    header["begin"] = static_cast<std::int64_t>(begin);
    header["count"] = static_cast<std::int64_t>(end - begin);
    std::string run = header.Dump(0) + "\n";
    recording->documents.push_back(run);
    for (std::uint64_t i = begin; i < end; ++i) {
      results->push_back(job.RunItem(i));
      run += results->back() + "\n";
    }
    recording->wire.push_back(std::move(run));
  }
}

// An exec-search job: megatron_22b on 64 A100 over the Megatron baseline
// space at batch 64, top 4, every collector on.
constexpr int kSearchTopK = 4;
json::Value ExecSearchJobSpec() {
  presets::SystemOptions so;
  so.num_procs = 64;
  json::Value search;
  search["job"] = "exec_search";
  search["application"] = presets::Megatron22B().ToJson();
  search["system"] = presets::A100(so).ToJson();
  search["space"] = SearchSpace::MegatronBaseline().ToJson();
  json::Value config;
  config["batch_size"] = 64;
  config["top_k"] = kSearchTopK;
  config["keep_all_rates"] = true;
  config["keep_pareto"] = true;
  search["config"] = config;
  return search;
}

// Study and exec-search runs, plus the frames around them.
Recording RecordedFrames() {
  Recording recording;
  for (const char* frame :
       {"{\"type\": \"ready\"}\n",
        "{\"begin\": 0, \"end\": 4, \"type\": \"shard_done\"}\n"}) {
    recording.wire.emplace_back(frame);
    recording.documents.emplace_back(frame);
  }
  json::Value study;
  study["job"] = "study";
  study["spec"] = Study::FromJson(json::Parse(R"({
    "application": "megatron_22b",
    "system": "a100_80g",
    "num_procs": 64,
    "base_execution": {"batch_size": 64, "recompute": "full"},
    "sweep": {"tensor_par": [1, 8], "pipeline_par": [1, 64],
              "data_par": "auto", "microbatch": [1, 4]}
  })")).ToJson();
  RecordRuns(*dist::MakeJob(study), 8, &recording.study_lines, &recording);
  RecordRuns(*dist::MakeJob(ExecSearchJobSpec()), 3, &recording.documents,
             &recording);
  return recording;
}

// Every config file, sorted for a stable order, then the frames.
std::vector<std::string> Corpus(const std::vector<std::string>& frames) {
  std::vector<fs::path> paths;
  for (const auto& entry :
       fs::recursive_directory_iterator(CALCULON_CONFIG_DIR)) {
    if (entry.path().extension() == ".json") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> corpus;
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    corpus.emplace_back(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
  }
  corpus.insert(corpus.end(), frames.begin(), frames.end());
  return corpus;
}

// Applies one to four random mutations to `s`; `other` donates the tail
// of a splice.
std::string Mutate(std::string s, const std::string& other, Rng& rng) {
  static constexpr char kInteresting[] = "\"\\{}[],:\n0123456789.eE-+tfnu/ ";
  const std::size_t ops = 1 + rng.Below(4);
  for (std::size_t op = 0; op < ops; ++op) {
    const std::size_t at = rng.Below(s.size() + 1);
    switch (rng.Below(5)) {
      case 0:  // bit flip
        if (!s.empty()) {
          s[at % s.size()] = static_cast<char>(
              static_cast<unsigned char>(s[at % s.size()]) ^
              (1u << rng.Below(8)));
        }
        break;
      case 1:  // byte insert, half the time a structural one
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(at),
                 rng.Below(2) == 0
                     ? kInteresting[rng.Below(sizeof kInteresting - 1)]
                     : static_cast<char>(rng.Below(256)));
        break;
      case 2:  // delete up to 8 bytes
        s.erase(at, 1 + rng.Below(8));
        break;
      case 3:  // truncate
        s.resize(at);
        break;
      default:  // splice: our head, the other's tail
        s = s.substr(0, at) + other.substr(rng.Below(other.size() + 1));
        break;
    }
  }
  return s;
}

TEST(CodecFuzz, MutatedDocumentsParseOrThrowConfigError) {
  const std::vector<std::string> corpus = Corpus(RecordedFrames().documents);
  ASSERT_GT(corpus.size(), 20u);
  for (const std::string& doc : corpus) {
    EXPECT_NO_THROW((void)json::Parse(doc));  // the seeds are valid
  }
  Rng rng(17);
  std::size_t parsed = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string input =
        Mutate(corpus[rng.Below(corpus.size())],
               corpus[rng.Below(corpus.size())], rng);
    try {
      (void)json::Parse(input);
      ++parsed;
    } catch (const ConfigError&) {
      // the expected outcome for most mutations
    }
  }
  // Some mutations (in string contents, digits) leave valid JSON: the
  // mutator is not just producing garbage the parser rejects up front.
  EXPECT_GT(parsed, 0u);
}

// The lines a frame announces: the count of a run header within a
// shard-sized bound (the supervisor checks a header against its shard
// before it announces anything), else none.
std::uint64_t AnnouncedLines(const json::Value& frame) {
  if (!frame.contains("type") || !frame.contains("count")) return 0;
  const json::Value& type = frame.at("type");
  const json::Value& count = frame.at("count");
  if (!type.is_string() || type.AsString() != "items" || !count.is_number()) {
    return 0;
  }
  const double n = count.AsDouble();
  return n >= 1 && n <= 64 && n == std::floor(n) ? static_cast<std::uint64_t>(n)
                                                 : 0;
}

// What reading a stream yields: frames, ConfigErrors, whole runs and the
// lines in them, and whether it ended truncated.
struct ReadOutcome {
  std::size_t frames = 0;
  std::size_t errors = 0;
  std::size_t runs = 0;
  std::size_t run_lines = 0;
  bool truncated = false;

  bool operator==(const ReadOutcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const ReadOutcome& o) {
  return os << o.frames << " frames, " << o.errors << " errors, " << o.runs
            << " runs of " << o.run_lines << " lines"
            << (o.truncated ? ", truncated" : "");
}

// The reference: `stream` split whole into lines, each a frame (or a
// ConfigError) unless it belongs to the run a frame announced.
ReadOutcome SplitStream(std::string_view stream) {
  ReadOutcome out;
  std::uint64_t run_size = 0;  // the lines the open run announced
  std::uint64_t run_have = 0;  // how many of them the stream holds so far
  std::size_t start = 0;
  for (std::size_t nl; (nl = stream.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    if (run_have < run_size) {
      if (++run_have == run_size) {
        ++out.runs;
        out.run_lines += run_size;
        run_size = 0;
        run_have = 0;
      }
      continue;
    }
    try {
      const json::Value frame = json::Parse(stream.substr(start, nl - start));
      ++out.frames;
      run_size = AnnouncedLines(frame);
    } catch (const ConfigError&) {
      ++out.errors;
    }
  }
  out.truncated = start < stream.size() || run_size > 0;
  return out;
}

// Feeds `stream` through a non-blocking pipe in random chunk sizes and
// reads it as the supervisor does.
void CheckFrameReader(const std::string& stream, Rng& rng) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::fcntl(fds[0], F_SETFL, O_NONBLOCK), 0);
  dist::FrameReader reader(fds[0]);
  ReadOutcome got;
  auto drain = [&] {
    for (;;) {
      std::string_view lines;
      if (reader.NextLines(&lines)) {
        ++got.runs;
        got.run_lines += static_cast<std::size_t>(
            std::count(lines.begin(), lines.end(), '\n'));
        continue;
      }
      json::Value frame;
      try {
        if (!reader.NextFrame(&frame)) return;
      } catch (const ConfigError&) {
        // a corrupt line: the supervisor kills the worker that sent it
        ++got.errors;
        continue;
      }
      ++got.frames;
      if (const std::uint64_t n = AnnouncedLines(frame)) reader.ExpectLines(n);
    }
  };
  for (std::size_t off = 0; off < stream.size();) {
    // Chunks stay below the pipe's capacity, so the write cannot block.
    const std::size_t n = std::min(stream.size() - off, 1 + rng.Below(700));
    ASSERT_EQ(::write(fds[1], stream.data() + off, n),
              static_cast<ssize_t>(n));
    off += n;
    while (reader.Fill() == dist::FrameReader::FillStatus::kData) drain();
  }
  ::close(fds[1]);
  dist::FrameReader::FillStatus last;
  while ((last = reader.Fill()) == dist::FrameReader::FillStatus::kData) {
    drain();
  }
  drain();
  ::close(fds[0]);
  EXPECT_EQ(last, dist::FrameReader::FillStatus::kEof);
  EXPECT_TRUE(reader.eof());
  got.truncated = reader.truncated();
  EXPECT_EQ(got, SplitStream(stream));
}

TEST(CodecFuzz, FrameReaderYieldsEveryLineAndFlagsATruncatedTail) {
  const std::vector<std::string> frames = RecordedFrames().wire;
  std::string recorded;
  for (const std::string& frame : frames) recorded += frame;
  Rng rng(23);
  CheckFrameReader(recorded, rng);  // the unmutated stream
  const ReadOutcome whole = SplitStream(recorded);
  EXPECT_FALSE(whole.truncated);
  EXPECT_GT(whole.runs, 4u);

  // Cut inside a run of three lines, from just after its header to just
  // before its last '\n': every cut is a truncation, and the run is never
  // taken.
  const std::size_t run_at = recorded.find("\"count\": 3");
  ASSERT_NE(run_at, std::string::npos);
  const std::size_t header_end = recorded.find('\n', run_at) + 1;
  std::size_t run_end = header_end;
  for (int line = 0; line < 3; ++line) {
    run_end = recorded.find('\n', run_end) + 1;
  }
  for (std::size_t cut = header_end; cut < run_end; ++cut) {
    const std::string stream = recorded.substr(0, cut);
    CheckFrameReader(stream, rng);
    EXPECT_TRUE(SplitStream(stream).truncated) << "cut at " << cut;
  }

  for (int i = 0; i < 1000; ++i) {
    const std::string stream =
        Mutate(recorded, frames[rng.Below(frames.size())], rng);
    CheckFrameReader(stream, rng);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// A finite double: a random bit pattern most of the time, an integer
// (the serializer's other number form) otherwise. Never -0.0, which
// prints as the integer 0.
double RandomNumber(Rng& rng) {
  if (rng.Below(4) == 0) {
    return static_cast<double>(static_cast<std::int64_t>(rng.Next() >> 10) -
                               (std::int64_t{1} << 53));
  }
  for (;;) {
    const std::uint64_t bits = rng.Next();
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof d);
    if (std::isfinite(d) && !(d == 0.0 && std::signbit(d))) return d;
  }
}

// Bytes 0x01-0xFF: every byte the serializer escapes or passes through.
std::string RandomString(Rng& rng) {
  std::string s(rng.Below(24), '\0');
  for (char& c : s) c = static_cast<char>(1 + rng.Below(255));
  return s;
}

json::Value RandomValue(Rng& rng, int depth) {
  switch (rng.Below(depth > 0 ? 6 : 4)) {
    case 0: return json::Value(nullptr);
    case 1: return json::Value(rng.Below(2) == 1);
    case 2: return json::Value(RandomNumber(rng));
    case 3: return json::Value(RandomString(rng));
    case 4: {
      json::Array array;
      for (std::size_t n = rng.Below(6); n > 0; --n) {
        array.push_back(RandomValue(rng, depth - 1));
      }
      return json::Value(std::move(array));
    }
    default: {
      json::Object object;
      for (std::size_t n = rng.Below(6); n > 0; --n) {
        object[RandomString(rng)] = RandomValue(rng, depth - 1);
      }
      return json::Value(std::move(object));
    }
  }
}

// operator== with doubles compared bit for bit.
bool BitIdentical(const json::Value& a, const json::Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case json::Type::kNumber: {
      const double x = a.AsDouble();
      const double y = b.AsDouble();
      return std::memcmp(&x, &y, sizeof x) == 0;
    }
    case json::Type::kArray: {
      const json::Array& x = a.AsArray();
      const json::Array& y = b.AsArray();
      return x.size() == y.size() &&
             std::equal(x.begin(), x.end(), y.begin(), BitIdentical);
    }
    case json::Type::kObject: {
      const json::Object& x = a.AsObject();
      const json::Object& y = b.AsObject();
      return x.size() == y.size() &&
             std::equal(x.begin(), x.end(), y.begin(),
                        [](const auto& p, const auto& q) {
                          return p.first == q.first &&
                                 BitIdentical(p.second, q.second);
                        });
    }
    default:
      return a == b;
  }
}

TEST(CodecFuzz, DumpThenParseGivesBackEveryBit) {
  std::string every_byte;
  for (int c = 0x01; c <= 0xFF; ++c) every_byte += static_cast<char>(c);
  Rng rng(31);
  for (int i = 0; i < 3000; ++i) {
    json::Object root;
    root[every_byte] = json::Value(every_byte);
    root["value"] = RandomValue(rng, 4);
    const json::Value v(std::move(root));
    for (const int indent : {0, 2}) {
      const std::string text = v.Dump(indent);
      ASSERT_TRUE(BitIdentical(json::Parse(text), v)) << text;
    }
  }
}

// --- Spec loaders -----------------------------------------------------------

// Replaces one number token of `s` (outside strings and comments), picked
// by `rng`, with one of `values`, also picked by `rng`.
std::string SwapNumberFrom(std::string s, Rng& rng,
                           std::span<const char* const> values) {
  std::vector<std::pair<std::size_t, std::size_t>> numbers;  // (at, size)
  for (std::size_t i = 0; i < s.size();) {
    if (s[i] == '"') {  // skip a string, escapes included
      for (++i; i < s.size() && s[i] != '"'; ++i) {
        if (s[i] == '\\') ++i;
      }
      ++i;
    } else if (s.compare(i, 2, "//") == 0) {
      i = s.find('\n', i);
      if (i == std::string::npos) break;
    } else if (s[i] == '-' || (s[i] >= '0' && s[i] <= '9')) {
      const std::size_t end = s.find_first_not_of("0123456789+-.eE", i);
      const std::size_t size = (end == std::string::npos ? s.size() : end) - i;
      numbers.emplace_back(i, size);
      i += size;
    } else {
      ++i;
    }
  }
  if (numbers.empty()) return s;
  const auto [at, size] = numbers[rng.Below(numbers.size())];
  return s.replace(at, size, values[rng.Below(values.size())]);
}

// Replaces one number token of `s` (outside strings and comments) with a
// value byte flips rarely produce: zero, negatives, the edges of int32,
// double-exact and int64 ranges, and huge and tiny magnitudes; with
// `overflow`, also 1e999, which parses to infinity.
std::string SwapNumber(std::string s, Rng& rng, bool overflow = false) {
  static const char* const kValues[] = {
      "0",    "-1",    "1e-300", "0.5",
      "2147483648",           // 2^31
      "9007199254740993",     // 2^53 + 1
      "9223372036854775808",  // 2^63
      "1e15", "1e300", "-1e300",
      "1e999"};               // with `overflow` only
  return SwapNumberFrom(
      std::move(s), rng,
      std::span(kValues, std::size(kValues) - (overflow ? 0 : 1)));
}

enum class SpecKind { kApplication, kSystem, kExecution, kStudy };

struct Spec {
  SpecKind kind;
  std::string text;
};

// configs/<kind>/*.json, sorted for a stable order, then every preset
// application as Application::ToJson writes it (the documents that carry
// a vocab_size).
std::vector<Spec> SpecCorpus() {
  const std::pair<const char*, SpecKind> dirs[] = {
      {"applications", SpecKind::kApplication},
      {"systems", SpecKind::kSystem},
      {"executions", SpecKind::kExecution},
      {"studies", SpecKind::kStudy}};
  std::vector<Spec> corpus;
  for (const auto& [dir, kind] : dirs) {
    std::vector<fs::path> paths;
    for (const auto& entry :
         fs::directory_iterator(fs::path(CALCULON_CONFIG_DIR) / dir)) {
      if (entry.path().extension() == ".json") paths.push_back(entry.path());
    }
    std::sort(paths.begin(), paths.end());
    for (const fs::path& path : paths) {
      std::ifstream in(path, std::ios::binary);
      corpus.push_back({kind, std::string(std::istreambuf_iterator<char>(in),
                                          std::istreambuf_iterator<char>())});
    }
  }
  for (const std::string& name : presets::ApplicationNames()) {
    corpus.push_back({SpecKind::kApplication,
                      presets::ApplicationByName(name).ToJson().Dump(2)});
  }
  return corpus;
}

// An execution of every processor as data parallelism: valid for any
// application, so the model reaches its block and capacity stages.
Execution DataParallel(std::int64_t procs) {
  Execution e;
  e.num_procs = procs;
  e.data_par = procs;
  e.batch_size = procs;
  return e;
}

// Loads `doc` as a spec of `kind` and evaluates it once against a fixed
// partner (a Study against its own application and system, and through
// Enumerate when it has at most 10,000 rows). Returns whether the model
// ran; throws ConfigError for a spec the loader rejects.
bool LoadAndEvaluate(SpecKind kind, const json::Value& doc) {
  switch (kind) {
    case SpecKind::kApplication: {
      const Application app = Application::FromJson(doc);
      (void)CalculatePerformance(app, DataParallel(64),
                                 presets::SystemByName("a100_80g")
                                     .WithNumProcs(64));
      return true;
    }
    case SpecKind::kSystem: {
      const System sys = System::FromJson(doc);
      (void)CalculatePerformance(presets::Megatron22B(),
                                 DataParallel(sys.num_procs()), sys);
      return true;
    }
    case SpecKind::kExecution: {
      const Execution exec = Execution::FromJson(doc);
      const System sys =
          presets::SystemByName("a100_80g").WithNumProcs(exec.num_procs);
      (void)CalculatePerformance(presets::Gpt3_175B(), exec, sys);
      return true;
    }
    case SpecKind::kStudy: {
      const Study study = Study::FromJson(doc);
      (void)CalculatePerformance(study.application, study.base,
                                 study.system);
      std::size_t rows = 1;
      for (const auto& axis : study.axes) {
        rows = axis.second.empty() ? 0 : rows * axis.second.size();
        if (rows > 10'000) return true;
      }
      for (const Execution& e : study.Enumerate()) {
        (void)CalculatePerformance(study.application, e, study.system);
      }
      return true;
    }
  }
  return false;
}

TEST(CodecFuzz, MutatedSpecsLoadAndEvaluateOrThrowConfigError) {
  const std::vector<Spec> corpus = SpecCorpus();
  ASSERT_GE(corpus.size(), 4u);
  for (const Spec& spec : corpus) {  // the seeds load and evaluate
    EXPECT_TRUE(LoadAndEvaluate(spec.kind, json::Parse(spec.text)));
  }
  Rng rng(41);
  int evaluated[4] = {0, 0, 0, 0};
  for (int i = 0; i < 20000; ++i) {
    const Spec& spec = corpus[rng.Below(corpus.size())];
    std::string text = spec.text;
    if (rng.Below(4) == 0) {
      text = Mutate(text, corpus[rng.Below(corpus.size())].text, rng);
    }
    for (std::size_t n = 1 + rng.Below(3); n > 0; --n) {
      text = SwapNumber(text, rng, /*overflow=*/true);
    }
    json::Value doc;
    try {
      doc = json::Parse(text);
    } catch (const ConfigError&) {
      continue;
    }
    try {
      if (LoadAndEvaluate(spec.kind, doc)) {
        ++evaluated[static_cast<int>(spec.kind)];
      }
    } catch (const ConfigError&) {
      // a spec the loader rejects
    }
  }
  // Every loader let some mutants through to the model.
  for (int kind = 0; kind < 4; ++kind) EXPECT_GT(evaluated[kind], 0) << kind;
}

// --- Checkpoint journals ----------------------------------------------------

// 16 rows, whose best is among the first 8.
json::Value CheckpointStudySpec() {
  return json::Parse(R"({
    "application": "megatron_22b",
    "system": "a100_80g",
    "num_procs": 64,
    "base_execution": {"batch_size": 64, "recompute": "full"},
    "sweep": {"microbatch": [1, 2], "tensor_par": [8, 4, 2, 1],
              "pipeline_par": [1, 2], "data_par": "auto"}
  })");
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

TEST(CodecFuzz, MutatedCheckpointsResumeOrThrowConfigError) {
  const Study study = Study::FromJson(CheckpointStudySpec());
  const std::vector<Execution> rows = study.Enumerate();
  ASSERT_EQ(rows.size(), 16u);
  const StudyRun reference = study.RunResilient();
  ASSERT_TRUE(reference.best.found);
  ASSERT_LT(reference.best.row, 8u);

  // The checkpoint of a run stopped after 8 of its 16 rows.
  const std::string path =
      ::testing::TempDir() + "calculon_fuzz_checkpoint.json";
  StudyRunOptions partial;
  partial.checkpoint_path = path;
  partial.checkpoint_every = 8;
  {
    StudyCommit commit(study, partial);
    StageTable stages(study.application, study.system);
    for (std::uint64_t i = 0; i < 8; ++i) {
      commit.Commit(EvaluateStudyRow(stages, rows[i], i));
    }
  }
  const std::string recorded = ReadText(path);
  StudyRunOptions resume;
  resume.checkpoint_path = path;
  resume.resume = true;
  {
    const StudyRun resumed = study.RunResilient(resume);  // the seed resumes
    EXPECT_EQ(resumed.resumed_rows, 8u);
    EXPECT_EQ(resumed.Csv(), reference.Csv());
    EXPECT_EQ(resumed.best.row, reference.best.row);
  }

  Rng rng(53);
  int completed = 0;
  int rejected = 0;
  for (int i = 0; i < 1500; ++i) {
    std::string text = recorded;
    if (rng.Below(4) == 0) text = Mutate(text, recorded, rng);
    for (std::size_t n = 1 + rng.Below(3); n > 0; --n) {
      text = SwapNumber(text, rng, /*overflow=*/true);
    }
    WriteText(path, text);
    try {
      const StudyRun run = study.RunResilient(resume);
      ++completed;
      if (run.best.found) {
        ASSERT_LT(run.best.row, rows.size()) << text;
        EXPECT_EQ(run.best.exec.ToJson().Dump(),
                  rows[run.best.row].ToJson().Dump())
            << text;
      }
    } catch (const ConfigError&) {
      ++rejected;  // a checkpoint the resume refuses
    }
  }
  std::remove(path.c_str());
  EXPECT_GT(completed, 0);
  EXPECT_GT(rejected, 0);
}

// --- Metrics snapshots ------------------------------------------------------

// The cumulative registry a supervised exec-search worker ships in its
// metrics_snapshot frame: counters and a latency histogram.
std::string RecordedMetricsSnapshot() {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const bool was_enabled = metrics.enabled();
  const obs::MetricsSnapshot saved = metrics.Snapshot();
  metrics.Reset();
  metrics.Enable();
  presets::SystemOptions so;
  so.num_procs = 64;
  SearchConfig config;
  config.batch_size = 64;
  ThreadPool pool(1);
  (void)FindOptimalExecution(presets::Megatron22B(), presets::A100(so),
                             SearchSpace::MegatronBaseline(), config, pool);
  const std::string text = metrics.Snapshot().ToJson().Dump(0);
  metrics.Reset();
  metrics.Ingest(saved, "");
  if (!was_enabled) metrics.Disable();
  return text;
}

// Snapshot() and ToJson() of a registry that just ingested, or failed to
// ingest, a snapshot, and the export decodes again: no count in it has
// passed what an export holds into a number FromJson refuses.
void ExpectUsable(const obs::MetricsRegistry& registry) {
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_NO_THROW((void)registry.ToJson().Dump());
  EXPECT_NO_THROW((void)obs::MetricsSnapshot::FromJson(registry.ToJson()));
  for (const auto& [name, h] : snapshot.histograms) {
    EXPECT_EQ(h.bucket_counts.size(), h.bounds.size() + 1) << name;
  }
}

// A decoded snapshot's counts: each in [0, 2^63), and each histogram's
// count the sum of its buckets.
void ExpectCountsConsistent(const obs::MetricsSnapshot& snapshot) {
  constexpr std::uint64_t kLimit = std::uint64_t{1} << 63;
  for (const auto& [name, value] : snapshot.counters) {
    EXPECT_LT(value, kLimit) << name;
  }
  for (const auto& [name, h] : snapshot.histograms) {
    EXPECT_LT(h.count, kLimit) << name;
    unsigned __int128 bucket_sum = 0;  // cannot overflow
    for (const std::uint64_t n : h.bucket_counts) {
      EXPECT_LT(n, kLimit) << name;
      bucket_sum += n;
    }
    EXPECT_TRUE(bucket_sum == h.count) << name;
  }
}

TEST(CodecFuzz, MutatedMetricsSnapshotsIngestOrThrowConfigError) {
  const std::string recorded = RecordedMetricsSnapshot();
  const obs::MetricsSnapshot seed =
      obs::MetricsSnapshot::FromJson(json::Parse(recorded));
  ASSERT_FALSE(seed.counters.empty());
  ASSERT_FALSE(seed.histograms.empty());
  ExpectCountsConsistent(seed);

  // Bounds the layout check rejects are rejected at decode, so a worker's
  // bad frame takes the corrupt-frame path; the registry that is handed
  // them anyway throws without leaving an empty instrument.
  json::Value descending = json::Parse(recorded);
  json::Value& first =
      descending["histograms"][seed.histograms.begin()->first];
  first["bounds"] =
      json::Value(json::Array{json::Value(2.0), json::Value(1.0)});
  first["bucket_counts"] =
      json::Value(json::Array{json::Value(0), json::Value(1), json::Value(0)});
  EXPECT_THROW((void)obs::MetricsSnapshot::FromJson(descending), ConfigError);
  obs::MetricsSnapshot bad;
  bad.histograms["h"].bounds = {2.0, 1.0};
  bad.histograms["h"].bucket_counts = {0, 1, 0};
  bad.histograms["h"].count = 1;
  obs::MetricsRegistry direct;
  EXPECT_THROW(direct.Ingest(bad, ""), ConfigError);
  EXPECT_TRUE(direct.Snapshot().histograms.empty());
  ExpectUsable(direct);

  // The supervisor's registry accumulates every worker's snapshot, under
  // the aggregate names and under a per-worker prefix, and may take the
  // same one several times. Counts that each decode can sum past what an
  // export holds: those ingests are refused. A registry that refused one
  // starts afresh, so the later snapshots still reach a live registry.
  static const char* const kBigCounts[] = {
      "4611686018427387904",   // 2^62
      "6000000000000000000",
      "9223372036854774784"};  // 2^63 - 1024, the largest that decodes
  obs::MetricsRegistry registry;
  Rng rng(67);
  int ingested = 0;
  int rejected = 0;
  int refused = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string text = recorded;
    if (rng.Below(4) == 0) text = Mutate(text, recorded, rng);
    for (std::size_t n = 1 + rng.Below(3); n > 0; --n) {
      text = SwapNumber(text, rng, /*overflow=*/true);
    }
    if (rng.Below(2) == 0) text = SwapNumberFrom(text, rng, kBigCounts);
    obs::MetricsSnapshot snapshot;
    try {
      snapshot = obs::MetricsSnapshot::FromJson(json::Parse(text));
    } catch (const ConfigError&) {
      ++rejected;  // a snapshot the decoder refuses
      continue;
    }
    ExpectCountsConsistent(snapshot);
    const std::string prefix = rng.Below(2) == 0 ? "" : "dist.worker.1.";
    bool refused_here = false;
    for (std::size_t n = 1 + rng.Below(3); n > 0; --n) {
      try {
        registry.Ingest(snapshot, prefix);
        ++ingested;
      } catch (const ConfigError&) {
        ++refused;  // a snapshot the registry refuses
        refused_here = true;
      }
      ExpectUsable(registry);
    }
    if (refused_here) registry.Reset();
  }
  EXPECT_GT(ingested, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(refused, 0);
}

// --- Study result lines -----------------------------------------------------

// Replaces tab-separated field `field` (0: rate, 1: bad-config) of `line`
// with `value`; a line without that field is returned as it is.
std::string ReplaceField(std::string line, int field, std::string_view value) {
  std::size_t begin = 0;
  for (int f = 0; f < field; ++f) {
    begin = line.find('\t', begin);
    if (begin == std::string::npos) return line;
    ++begin;
  }
  const std::size_t end = line.find('\t', begin);
  if (end == std::string::npos) return line;
  return line.replace(begin, end - begin, value);
}

TEST(CodecFuzz, MutatedStudyLinesDecodeOrThrowConfigError) {
  std::vector<std::string> corpus = RecordedFrames().study_lines;
  ASSERT_FALSE(corpus.empty());
  // Bad-config rows, whose detail is free text.
  const Study study = Study::FromJson(CheckpointStudySpec());
  const Execution exec = study.Enumerate().front();
  for (const char* detail :
       {"injected fault", "quote \" back\\slash",
        "tab\tnew\nline \x01\x1f\x7f end", "a, comma", ""}) {
    StudyRowResult row;
    row.csv = StudyCsvRow(
        exec, Result<Stats>(Infeasible::kBadConfig, std::string(detail)));
    row.bad_config = detail;
    corpus.push_back(dist::StudyRowToLine(row));
  }
  bool feasible = false;
  for (const std::string& line : corpus) {
    // The seeds decode and encode back to themselves.
    const StudyRowResult row = dist::StudyRowFromLine(line);
    EXPECT_EQ(dist::StudyRowToLine(row), line);
    feasible = feasible || row.sample_rate.has_value();
  }
  ASSERT_TRUE(feasible);

  static const char* const kBadRates[] = {"inf", "nan",    "-1",  "0",
                                          "1e999", "0x1p3", "1.5x"};
  Rng rng(71);
  int decoded = 0;
  int rejected = 0;
  for (int i = 0; i < 6000; ++i) {
    const std::string& seed = corpus[rng.Below(corpus.size())];
    std::string line;
    bool must_throw = true;
    switch (rng.Below(4)) {
      case 0:
        line = ReplaceField(seed, 0,
                            kBadRates[rng.Below(std::size(kBadRates))]);
        break;
      case 1: {  // drop one of the two tabs
        const std::size_t first = seed.find('\t');
        line = seed;
        line.erase(rng.Below(2) == 0 ? first : seed.find('\t', first + 1), 1);
        break;
      }
      case 2:  // an unterminated JSON string as the bad-config field
        line = ReplaceField(seed, 1, rng.Below(2) == 0 ? "\"open" : "\"");
        break;
      default:
        line = Mutate(seed, corpus[rng.Below(corpus.size())], rng);
        must_throw = false;
        break;
    }
    try {
      const StudyRowResult row = dist::StudyRowFromLine(line);
      ++decoded;
      EXPECT_FALSE(must_throw) << line;
      if (row.sample_rate) {
        EXPECT_TRUE(std::isfinite(row.sample_rate->raw())) << line;
        EXPECT_GT(row.sample_rate->raw(), 0.0) << line;
      }
    } catch (const ConfigError&) {
      ++rejected;
    }
  }
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

// --- Audit result lines -----------------------------------------------------

// The lines an audit worker writes for megatron_22b on two systems, as
// AuditJob writes them; the second pair runs under injected error faults,
// so its line carries failures.
std::vector<std::string> RecordedAuditLines() {
  json::Value spec;
  spec["job"] = "audit";
  json::Value options;
  options["proc_counts"] = json::Value(json::Array{8, 16});
  options["max_splits"] = 4;
  spec["options"] = options;
  json::Array pairs;
  for (const char* system : {"a100_80g", "h100_80g"}) {
    json::Value pair;
    pair["application"] = presets::Megatron22B().ToJson();
    pair["system"] = presets::SystemByName(system).ToJson();
    pair["context_label"] = system;
    pair["fault_key_base"] = static_cast<std::int64_t>(pairs.size()) << 32;
    pairs.push_back(std::move(pair));
  }
  spec["pairs"] = json::Value(std::move(pairs));
  const std::unique_ptr<dist::Job> job = dist::MakeJob(spec);
  std::vector<std::string> lines = {job->RunItem(0)};
  testing::FaultInjector& faults = testing::FaultInjector::Global();
  faults.Configure(testing::FaultPlan::FromSpec("seed=3,error=0.2"));
  lines.push_back(job->RunItem(1));
  faults.Reset();
  return lines;
}

// `line` with the number after its first `"key": ` replaced by `value`; a
// line without that key is returned as it is.
std::string ReplaceNumber(std::string line, const std::string& key,
                          std::string_view value) {
  const std::string field = "\"" + key + "\": ";
  const std::size_t at = line.find(field);
  if (at == std::string::npos) return line;
  const std::size_t begin = at + field.size();
  const std::size_t end = line.find_first_not_of("0123456789-", begin);
  return line.replace(begin, end - begin, value);
}

// Decodes an audit line as the supervisor does.
void DecodeAuditLine(std::string_view line, analysis::AuditReport* report,
                     std::vector<FailureRecord>* failures) {
  const json::Value result = json::Parse(line);
  *failures = dist::FailuresFromJson(result.at("failures"));
  *report = analysis::ReportFromJson(result.at("report"));
}

TEST(CodecFuzz, MutatedAuditLinesDecodeOrThrowConfigError) {
  const std::vector<std::string> corpus = RecordedAuditLines();
  analysis::AuditReport report;
  std::vector<FailureRecord> failures;
  DecodeAuditLine(corpus[0], &report, &failures);
  ASSERT_GT(report.evaluations, 0u);
  DecodeAuditLine(corpus[1], &report, &failures);
  ASSERT_FALSE(failures.empty());  // the faulted pair's line

  static const char* const kCounts[] = {"evaluations", "feasible", "checks",
                                        "dropped", "item"};
  constexpr std::uint64_t kMaxInt64 = INT64_MAX;
  Rng rng(29);
  int decoded = 0;
  int rejected = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string& seed = corpus[rng.Below(corpus.size())];
    std::string line;
    bool must_throw = true;
    switch (rng.Below(4)) {
      case 0:  // a negative count or failure item
        line = ReplaceNumber(seed, kCounts[rng.Below(std::size(kCounts))],
                             rng.Below(2) == 0 ? "-1" : "-5");
        must_throw = line != seed;
        break;
      case 1:  // a worker id beyond unsigned
        line = ReplaceNumber(seed, "worker", "4294967296");
        must_throw = line != seed;
        break;
      case 2:
        line = SwapNumber(seed, rng);
        must_throw = false;
        break;
      default:
        line = Mutate(seed, corpus[rng.Below(corpus.size())], rng);
        must_throw = false;
        break;
    }
    try {
      DecodeAuditLine(line, &report, &failures);
      ++decoded;
      EXPECT_FALSE(must_throw) << line;
      for (std::uint64_t n : {report.evaluations, report.feasible,
                              report.checks, report.dropped}) {
        EXPECT_LE(n, kMaxInt64) << line;
      }
      for (const FailureRecord& f : failures) EXPECT_LE(f.item, kMaxInt64);
    } catch (const ConfigError&) {
      ++rejected;
    }
  }
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

// --- Exec-search result lines -----------------------------------------------

// The result lines of every triple of ExecSearchJobSpec(), as its worker
// writes them.
std::vector<std::string> RecordedSearchLines() {
  const std::unique_ptr<dist::Job> job = dist::MakeJob(ExecSearchJobSpec());
  std::vector<std::string> lines;
  for (std::uint64_t i = 0; i < job->num_items(); ++i) {
    lines.push_back(job->RunItem(i));
  }
  return lines;
}

// `line` with its best list replaced by `best`.
std::string WithBest(const std::string& line, json::Array best) {
  json::Value v = json::Parse(line);
  v["best"] = json::Value(std::move(best));
  return v.Dump(0);
}

// Decodes an exec-search line as FindOptimalExecutionSupervised does.
TripleSweep DecodeSearchLine(const std::string& line, StageTable& stages) {
  return dist::TripleSweepFromJson(json::Parse(line), kSearchTopK, stages);
}

// ExecSearch::Commit merges sorted lists of at most top_k entries, so the
// decoder refuses the two ways a worker's list can break that: entries
// out of order, and more of them than top_k.
TEST(CodecFuzz, ExecSearchBestListsOutOfOrderOrPastTopKAreRefused) {
  const json::Value spec = ExecSearchJobSpec();
  const Application app = Application::FromJson(spec.at("application"));
  const System sys = System::FromJson(spec.at("system"));
  StageTable stages(app, sys);
  int refused_long = 0;
  int refused_order = 0;
  for (const std::string& line : RecordedSearchLines()) {
    const TripleSweep sweep = DecodeSearchLine(line, stages);
    ASSERT_TRUE(IsTopKList(sweep.best, kSearchTopK)) << line;
    const json::Array best = json::Parse(line).at("best").AsArray();
    if (best.empty()) continue;
    // The last entry repeated: ties stay in order, so only the length can
    // be wrong.
    json::Array repeated = best;
    while (repeated.size() < static_cast<std::size_t>(kSearchTopK)) {
      repeated.push_back(best.back());
    }
    EXPECT_EQ(DecodeSearchLine(WithBest(line, repeated), stages).best.size(),
              repeated.size());
    repeated.push_back(best.back());
    EXPECT_THROW((void)DecodeSearchLine(WithBest(line, repeated), stages),
                 ConfigError);
    // Past top_k by entries that do not evaluate.
    json::Value infeasible = json::Parse(best.back().Dump());
    infeasible["tensor_par"] = 3;
    json::Array padded = best;
    while (padded.size() <= static_cast<std::size_t>(kSearchTopK)) {
      padded.push_back(infeasible);
    }
    EXPECT_THROW((void)DecodeSearchLine(WithBest(line, padded), stages),
                 ConfigError);
    // An entry that does not evaluate is no candidate a worker ships.
    json::Array replaced = best;
    replaced.back() = infeasible;
    EXPECT_THROW((void)DecodeSearchLine(WithBest(line, replaced), stages),
                 ConfigError);
    ++refused_long;
    for (std::size_t i = 1; i < best.size(); ++i) {
      if (!RanksBefore(sweep.best[i - 1].stats, sweep.best[i].stats)) {
        continue;  // a tie: swapped, still in order
      }
      json::Array swapped = best;
      std::swap(swapped[i - 1], swapped[i]);
      EXPECT_THROW((void)DecodeSearchLine(WithBest(line, swapped), stages),
                   ConfigError);
      ++refused_order;
    }
  }
  EXPECT_GT(refused_long, 0);
  EXPECT_GT(refused_order, 0);
}

TEST(CodecFuzz, MutatedExecSearchLinesDecodeOrThrowConfigError) {
  const std::vector<std::string> corpus = RecordedSearchLines();
  ASSERT_FALSE(corpus.empty());
  const json::Value spec = ExecSearchJobSpec();
  const Application app = Application::FromJson(spec.at("application"));
  const System sys = System::FromJson(spec.at("system"));
  StageTable stages(app, sys);
  // Each seed's decoded best list, to tell which swaps break the order.
  std::vector<std::vector<SearchEntry>> seed_best;
  for (const std::string& line : corpus) {
    seed_best.push_back(DecodeSearchLine(line, stages).best);
  }
  Rng rng(34);
  int decoded = 0;
  int rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::size_t pick = rng.Below(corpus.size());
    const std::string& seed = corpus[pick];
    const std::vector<SearchEntry>& sorted = seed_best[pick];
    const json::Array best = json::Parse(seed).at("best").AsArray();
    std::string line;
    bool must_throw = false;
    switch (rng.Below(4)) {
      case 0:  // two entries swapped: refused unless they tie
        if (best.size() >= 2) {
          const std::size_t a = rng.Below(best.size());
          const std::size_t b = rng.Below(best.size());
          json::Array swapped = best;
          std::swap(swapped[a], swapped[b]);
          line = WithBest(seed, std::move(swapped));
          must_throw =
              RanksBefore(sorted[std::min(a, b)].stats,
                          sorted[std::max(a, b)].stats);
        } else {
          line = seed;
        }
        break;
      case 1:  // entries of the list repeated past top_k
        if (!best.empty()) {
          json::Array longer = best;
          const std::size_t extra = 1 + rng.Below(3);
          while (longer.size() < kSearchTopK + extra) {
            longer.push_back(best[rng.Below(best.size())]);
          }
          line = WithBest(seed, std::move(longer));
          must_throw = true;
        } else {
          line = seed;
        }
        break;
      case 2:
        line = SwapNumber(seed, rng);
        break;
      default:
        line = Mutate(seed, corpus[rng.Below(corpus.size())], rng);
        break;
    }
    try {
      const TripleSweep sweep = DecodeSearchLine(line, stages);
      ++decoded;
      EXPECT_FALSE(must_throw) << line;
      EXPECT_TRUE(IsTopKList(sweep.best, kSearchTopK)) << line;
    } catch (const ConfigError&) {
      ++rejected;
    }
  }
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

// top_k travels to a worker as a JSON number; one outside [0, 2^31 - 1]
// is refused, not truncated (2^32 used to read as 0).
TEST(CodecFuzz, ExecSearchJobRefusesATopKOutsideInt) {
  json::Value spec = ExecSearchJobSpec();
  for (const std::int64_t top_k :
       {std::int64_t{-1}, std::int64_t{1} << 31, std::int64_t{1} << 32,
        std::int64_t{1} << 53}) {
    spec["config"]["top_k"] = top_k;
    EXPECT_THROW((void)dist::MakeJob(spec), ConfigError) << top_k;
  }
  for (const std::int64_t top_k :
       {std::int64_t{0}, (std::int64_t{1} << 31) - 1}) {
    spec["config"]["top_k"] = top_k;
    EXPECT_NO_THROW((void)dist::MakeJob(spec)) << top_k;
  }
}

}  // namespace
}  // namespace calculon
