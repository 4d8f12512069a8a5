// Shard partitioning and crash-safe checkpoint journals (src/runner/shard.h,
// src/runner/checkpoint.h): the --shard=i/N parser, exact-cover partitioning,
// bit-exact record round trips, torn-tail recovery, corruption detection, and
// the merge contract — N shard journals combine into output byte-identical to
// the one-shot run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/runner/checkpoint.h"
#include "src/runner/shard.h"
#include "src/runner/sweep.h"

namespace specbench {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "specbench_ckpt_" + name + "_" +
         std::to_string(::getpid());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

// A small synthetic grid whose cell outputs are pure functions of the seed,
// like the real experiment grids.
Sweep BuildTestSweep(size_t cells) {
  Sweep sweep;
  for (size_t i = 0; i < cells; i++) {
    sweep.Add(SweepCellKey{"cpu" + std::to_string(i % 3), "cfg" + std::to_string(i % 2),
                           "wl" + std::to_string(i)},
              [](uint64_t seed) {
                CellOutput out;
                out.metrics.push_back(CellMetric{
                    "total", "Total",
                    Estimate{static_cast<double>(seed % 1000) / 7.0,
                             static_cast<double>(seed % 13) / 3.0}});
                out.samples = static_cast<size_t>(seed % 5) + 1;
                out.converged = seed % 2 == 0;
                return out;
              });
  }
  return sweep;
}

// --- ShardSpec parsing ------------------------------------------------------

TEST(ShardSpec, ParsesValidSpecs) {
  ShardSpec spec;
  std::string error;
  ASSERT_TRUE(ParseShardSpec("0/1", &spec, &error));
  EXPECT_EQ(spec.index, 0u);
  EXPECT_EQ(spec.count, 1u);
  EXPECT_TRUE(spec.IsFullGrid());
  ASSERT_TRUE(ParseShardSpec("3/8", &spec, &error));
  EXPECT_EQ(spec.index, 3u);
  EXPECT_EQ(spec.count, 8u);
  EXPECT_FALSE(spec.IsFullGrid());
}

TEST(ShardSpec, RejectsMalformedSpecs) {
  ShardSpec spec;
  std::string error;
  EXPECT_FALSE(ParseShardSpec("3", &spec, &error));
  EXPECT_EQ(error, "want i/N (shard i of N, zero-based)");
  EXPECT_FALSE(ParseShardSpec("x/4", &spec, &error));
  EXPECT_EQ(error, "\"x\" is not a decimal shard index");
  EXPECT_FALSE(ParseShardSpec("0/y", &spec, &error));
  EXPECT_EQ(error, "\"y\" is not a decimal shard count");
  EXPECT_FALSE(ParseShardSpec("0/0", &spec, &error));
  EXPECT_EQ(error, "shard count must be at least 1");
  EXPECT_FALSE(ParseShardSpec("4/4", &spec, &error));
  EXPECT_EQ(error, "shard index 4 out of range for 4 shards (zero-based)");
  EXPECT_FALSE(ParseShardSpec("1/4/2", &spec, &error));
}

TEST(ShardSpec, ShardsPartitionTheGridExactly) {
  for (uint32_t count : {1u, 2u, 3u, 4u, 7u}) {
    for (size_t total : {0u, 1u, 5u, 48u, 97u}) {
      std::set<size_t> seen;
      size_t sum = 0;
      for (uint32_t index = 0; index < count; index++) {
        const ShardSpec spec{index, count};
        size_t owned = 0;
        for (size_t cell = 0; cell < total; cell++) {
          if (spec.Owns(cell)) {
            owned++;
            EXPECT_TRUE(seen.insert(cell).second) << "cell " << cell << " in two shards";
          }
        }
        EXPECT_EQ(owned, spec.CellCount(total));
        sum += owned;
      }
      EXPECT_EQ(sum, total);
      EXPECT_EQ(seen.size(), total);
    }
  }
}

// --- Cell record round trips ------------------------------------------------

TEST(CellRecord, RoundTripsTrickyDoublesBitExactly) {
  SweepCellResult cell;
  cell.key = {"Skylake Client", "defaults", "lebench"};
  cell.seed = 0xdeadbeefcafef00dULL;
  cell.output.samples = 17;
  cell.output.converged = false;
  cell.output.saw_non_finite = true;
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           -1e-308,                                   // subnormal range
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           123456789.000000012345};
  for (double v : values) {
    cell.output.metrics.push_back(CellMetric{"m", "Metric", Estimate{v, -v}});
  }
  const std::string record = SerializeCellRecord(42, cell);

  size_t index = 0;
  SweepCellResult parsed;
  std::string error;
  ASSERT_TRUE(ParseCellRecord(record, &index, &parsed, &error)) << error;
  EXPECT_EQ(index, 42u);
  EXPECT_EQ(parsed.key.cpu, cell.key.cpu);
  EXPECT_EQ(parsed.key.config, cell.key.config);
  EXPECT_EQ(parsed.key.workload, cell.key.workload);
  EXPECT_EQ(parsed.seed, cell.seed);
  EXPECT_EQ(parsed.output.samples, cell.output.samples);
  EXPECT_FALSE(parsed.output.converged);
  EXPECT_TRUE(parsed.output.saw_non_finite);
  // Re-serialization must be byte-identical — including NaN and -0.0, which
  // %.17g-style text would mangle or fold.
  EXPECT_EQ(SerializeCellRecord(42, parsed), record);
}

TEST(CellRecord, RoundTripsHostileStrings) {
  SweepCellResult cell;
  cell.key = {"tab\there", "percent%20sign", "new\nline\rand spaces"};
  cell.seed = 7;
  cell.output.metrics.push_back(CellMetric{"id\twith\ttabs", "label %", Estimate{1.5, 0.25}});
  const std::string record = SerializeCellRecord(0, cell);
  EXPECT_EQ(record.find('\n'), std::string::npos);
  EXPECT_EQ(record.find('\r'), std::string::npos);

  size_t index = 99;
  SweepCellResult parsed;
  std::string error;
  ASSERT_TRUE(ParseCellRecord(record, &index, &parsed, &error)) << error;
  EXPECT_EQ(parsed.key.cpu, "tab\there");
  EXPECT_EQ(parsed.key.config, "percent%20sign");
  EXPECT_EQ(parsed.key.workload, "new\nline\rand spaces");
  EXPECT_EQ(parsed.output.metrics[0].id, "id\twith\ttabs");
}

TEST(CellRecord, RejectsCorruption) {
  SweepCellResult cell;
  cell.key = {"cpu", "cfg", "wl"};
  cell.output.metrics.push_back(CellMetric{"total", "Total", Estimate{1.0, 0.1}});
  std::string record = SerializeCellRecord(3, cell);
  record[record.size() / 2] ^= 0x01;  // flip one payload bit
  size_t index = 0;
  SweepCellResult parsed;
  std::string error;
  EXPECT_FALSE(ParseCellRecord(record, &index, &parsed, &error));
}

// --- Journal write / load ---------------------------------------------------

class JournalTest : public testing::Test {
 protected:
  void SetUp() override {
    sweep_ = BuildTestSweep(12);
    header_ = JournalHeader{1, sweep_.GridDigest(), sweep_.size()};
    RunnerOptions options;
    options.jobs = 1;
    full_ = sweep_.Run(options);
  }

  // Writes a complete journal for `spec`'s slice of the grid.
  void WriteShardJournal(const std::string& path, const ShardSpec& spec) {
    CheckpointWriter writer;
    std::string error;
    ASSERT_TRUE(writer.Create(path, header_, &error)) << error;
    for (size_t i = 0; i < full_.cells.size(); i++) {
      if (spec.Owns(i)) {
        ASSERT_TRUE(writer.Append(i, full_.cells[i]));
      }
    }
    writer.Close();
  }

  Sweep sweep_;
  JournalHeader header_;
  SweepResult full_;
};

TEST_F(JournalTest, WriteThenLoadRoundTrips) {
  const std::string path = TempPath("roundtrip");
  WriteShardJournal(path, ShardSpec{0, 1});

  CheckpointData data;
  std::string error;
  ASSERT_TRUE(LoadCheckpoint(path, &data, &error)) << error;
  EXPECT_TRUE(data.header == header_);
  EXPECT_FALSE(data.truncated_tail);
  ASSERT_EQ(data.cells.size(), full_.cells.size());
  for (const auto& [index, cell] : data.cells) {
    EXPECT_EQ(SerializeCellRecord(index, cell),
              SerializeCellRecord(index, full_.cells[index]));
  }
  std::remove(path.c_str());
}

TEST_F(JournalTest, ToleratesTornTailAndResumesPastIt) {
  const std::string path = TempPath("torn");
  WriteShardJournal(path, ShardSpec{0, 1});
  const std::string intact = ReadFile(path);
  // Chop mid-way through the final record (drop its newline and tail bytes).
  WriteFile(path, intact.substr(0, intact.size() - 9));

  CheckpointData data;
  std::string error;
  ASSERT_TRUE(LoadCheckpoint(path, &data, &error)) << error;
  EXPECT_TRUE(data.truncated_tail);
  EXPECT_EQ(data.cells.size(), full_.cells.size() - 1);
  EXPECT_EQ(data.cells.count(full_.cells.size() - 1), 0u);
  EXPECT_LT(data.valid_bytes, intact.size());

  // Resume: the torn bytes are truncated away and the lost cell re-appends.
  CheckpointWriter writer;
  ASSERT_TRUE(writer.OpenForResume(path, header_, data, &error)) << error;
  ASSERT_TRUE(writer.Append(full_.cells.size() - 1, full_.cells.back()));
  writer.Close();
  EXPECT_EQ(ReadFile(path), intact);
  std::remove(path.c_str());
}

TEST_F(JournalTest, RejectsCorruptionMidJournal) {
  const std::string path = TempPath("midcorrupt");
  WriteShardJournal(path, ShardSpec{0, 1});
  std::string text = ReadFile(path);
  // Corrupt a byte inside the *second* line — not the tail, so this must be
  // a hard error rather than a tolerated torn record.
  const size_t second_line = text.find('\n') + 10;
  text[second_line] = text[second_line] == 'x' ? 'y' : 'x';
  WriteFile(path, text);

  CheckpointData data;
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(path, &data, &error));
  EXPECT_NE(error.find("corrupt record mid-journal"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST_F(JournalTest, RejectsConflictingDuplicateTolerantOfIdenticalOne) {
  const std::string path = TempPath("dup");
  WriteShardJournal(path, ShardSpec{0, 1});
  std::string text = ReadFile(path);
  const size_t first_record = text.find('\n') + 1;
  const size_t first_end = text.find('\n', first_record) + 1;
  const std::string record = text.substr(first_record, first_end - first_record);

  // Identical duplicate (a shard re-run appended the same record): fine.
  WriteFile(path, text + record);
  CheckpointData data;
  std::string error;
  EXPECT_TRUE(LoadCheckpoint(path, &data, &error)) << error;
  EXPECT_EQ(data.cells.size(), full_.cells.size());

  // Conflicting duplicate for the same cell: error. Build a valid record
  // with the same index but different content.
  SweepCellResult altered = full_.cells[0];
  altered.output.samples += 1;
  WriteFile(path, text + SerializeCellRecord(0, altered) + "\nx\n");
  EXPECT_FALSE(LoadCheckpoint(path, &data, &error));
  EXPECT_NE(error.find("conflicting duplicate"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST_F(JournalTest, ResumeSkipsCompletedCells) {
  // Simulate a killed run: journal holds the first 5 cells only.
  const std::string path = TempPath("resume");
  CheckpointWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Create(path, header_, &error)) << error;
  for (size_t i = 0; i < 5; i++) {
    ASSERT_TRUE(writer.Append(i, full_.cells[i]));
  }
  writer.Close();

  CheckpointData data;
  ASSERT_TRUE(LoadCheckpoint(path, &data, &error)) << error;
  std::vector<bool> have(sweep_.size(), false);
  for (const auto& [index, cell] : data.cells) {
    have[index] = true;
  }

  size_t executed = 0;
  RunnerOptions options;
  options.jobs = 1;
  options.should_run = [&have](size_t i) { return !have[i]; };
  options.on_cell_done = [&executed](size_t, const SweepCellResult&) { executed++; };
  SweepResult result = sweep_.Run(options);
  EXPECT_EQ(executed, sweep_.size() - 5);

  ASSERT_TRUE(OverlayCheckpoint(data, &result, &error)) << error;
  EXPECT_EQ(result.ToJson(), full_.ToJson());
  std::remove(path.c_str());
}

TEST_F(JournalTest, MergedShardJournalsAreByteIdenticalToOneShot) {
  std::vector<std::string> paths;
  for (uint32_t i = 0; i < 4; i++) {
    paths.push_back(TempPath("merge" + std::to_string(i)));
    WriteShardJournal(paths.back(), ShardSpec{i, 4});
  }
  SweepResult merged;
  std::string error;
  ASSERT_TRUE(MergeCheckpoints(paths, &merged, &error)) << error;
  EXPECT_EQ(merged.ToJson(), full_.ToJson());
  EXPECT_EQ(merged.ToCsv(), full_.ToCsv());

  // Dropping one shard must be an "incomplete" error, not partial output.
  EXPECT_FALSE(MergeCheckpoints({paths[0], paths[2], paths[3]}, &merged, &error));
  EXPECT_NE(error.find("incomplete"), std::string::npos) << error;
  for (const std::string& path : paths) {
    std::remove(path.c_str());
  }
}

TEST_F(JournalTest, ResumeAgainstDifferentGridIsAnError) {
  const std::string path = TempPath("gridmismatch");
  WriteShardJournal(path, ShardSpec{0, 1});
  CheckpointData data;
  std::string error;
  ASSERT_TRUE(LoadCheckpoint(path, &data, &error)) << error;

  JournalHeader other = header_;
  other.grid_digest ^= 1;  // a different grid (changed cpus/seeds/...)
  CheckpointWriter writer;
  EXPECT_FALSE(writer.OpenForResume(path, other, data, &error));
  EXPECT_NE(error.find("different grid"), std::string::npos) << error;

  JournalHeader reseeded = header_;
  reseeded.base_seed = 2;
  EXPECT_FALSE(writer.OpenForResume(path, reseeded, data, &error));
  std::remove(path.c_str());
}

TEST(GridDigest, DependsOnKeysAndCount) {
  Sweep a = BuildTestSweep(6);
  Sweep b = BuildTestSweep(6);
  EXPECT_EQ(a.GridDigest(), b.GridDigest());
  Sweep c = BuildTestSweep(7);
  EXPECT_NE(a.GridDigest(), c.GridDigest());
}

}  // namespace
}  // namespace specbench
