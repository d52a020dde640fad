// The sharded result store: record codec round-trips, fingerprint
// sensitivity, and — the property resume correctness rests on — torn and
// corrupt shards degrading to "recompute those cells", never to wrong data.
#include "analysis/result_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "analysis/runner.hpp"
#include "test_util.hpp"
#include "util/binary_io.hpp"
#include "util/fault_inject.hpp"

namespace hh::analysis {
namespace {

namespace fs = std::filesystem;
using test::TempDir;

TrialStats sample_stats(std::uint32_t i) {
  TrialStats stats;
  stats.converged = (i % 2) == 0;
  stats.rounds = 17.0 + i;
  stats.winner = 1 + (i % 3);
  stats.winner_quality = 1.0;
  stats.recruitments = 1000.0 + i;
  return stats;
}

TEST(ResultStore, RoundTripsRecordsAcrossReopen) {
  const TempDir dir("roundtrip");
  std::vector<TrialKey> keys;
  {
    ResultStore store(dir.path);
    EXPECT_EQ(store.size(), 0u);
    auto writer = store.open_shard();
    for (std::uint32_t i = 0; i < 64; ++i) {
      keys.push_back(TrialKey{0xF00D + i, 0x5EED + i, i});
      writer->append(keys.back(), sample_stats(i));
    }
    writer->flush();
  }
  ResultStore reopened(dir.path);
  EXPECT_EQ(reopened.size(), 64u);
  EXPECT_EQ(reopened.dropped_records(), 0u);
  for (std::uint32_t i = 0; i < 64; ++i) {
    const TrialStats* hit = reopened.find(keys[i]);
    ASSERT_NE(hit, nullptr);
    const TrialStats want = sample_stats(i);
    EXPECT_EQ(hit->converged, want.converged);
    EXPECT_EQ(hit->rounds, want.rounds);
    EXPECT_EQ(hit->winner, want.winner);
    EXPECT_EQ(hit->winner_quality, want.winner_quality);
    EXPECT_EQ(hit->recruitments, want.recruitments);
  }
  EXPECT_EQ(reopened.find(TrialKey{1, 2, 3}), nullptr);
}

TEST(ResultStore, MultipleShardsAllLoad) {
  const TempDir dir("shards");
  {
    ResultStore store(dir.path);
    auto a = store.open_shard();
    auto b = store.open_shard();
    a->append(TrialKey{1, 1, 0}, sample_stats(0));
    b->append(TrialKey{2, 2, 0}, sample_stats(1));
  }
  ResultStore reopened(dir.path);
  EXPECT_EQ(reopened.shard_files(), 2u);
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_NE(reopened.find(TrialKey{1, 1, 0}), nullptr);
  EXPECT_NE(reopened.find(TrialKey{2, 2, 0}), nullptr);
}

TEST(ResultStore, TornShardTailIsDroppedNotFatal) {
  const TempDir dir("torn");
  fs::path shard;
  {
    ResultStore store(dir.path);
    auto writer = store.open_shard();
    for (std::uint32_t i = 0; i < 10; ++i) {
      writer->append(TrialKey{7, 7, i}, sample_stats(i));
    }
  }
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    shard = entry.path();
  }
  // Simulate a mid-write kill: chop the file mid-record.
  const auto full = fs::file_size(shard);
  fs::resize_file(shard, full - 20);
  ResultStore reopened(dir.path);
  // The valid prefix survives; exactly the torn record is gone.
  EXPECT_EQ(reopened.size(), 9u);
  EXPECT_EQ(reopened.dropped_records(), 1u);
  EXPECT_NE(reopened.find(TrialKey{7, 7, 0}), nullptr);
  EXPECT_EQ(reopened.find(TrialKey{7, 7, 9}), nullptr);
}

TEST(ResultStore, CorruptByteInvalidatesOnlyThatShardSuffix) {
  const TempDir dir("corrupt");
  {
    ResultStore store(dir.path);
    auto writer = store.open_shard();
    for (std::uint32_t i = 0; i < 8; ++i) {
      writer->append(TrialKey{9, 9, i}, sample_stats(i));
    }
  }
  fs::path shard;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    shard = entry.path();
  }
  // Flip one payload byte in the 4th record (header is 8 bytes, each
  // record 53): the checksum must reject it and everything after it.
  std::fstream f(shard, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(8 + 3 * 53 + 10);
  const char evil = 0x42;
  f.write(&evil, 1);
  f.close();
  ResultStore reopened(dir.path);
  EXPECT_EQ(reopened.size(), 3u);
  EXPECT_GE(reopened.dropped_records(), 1u);
}

TEST(ResultStore, ForeignFileWithBadHeaderIsQuarantined) {
  const TempDir dir("foreign");
  fs::create_directories(dir.path);
  std::ofstream(dir.path / "junk.hhrs") << "this is not a shard";
  ResultStore store(dir.path);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.dropped_records(), 1u);
  // Bad-magic files are moved aside so later scans don't re-chew them.
  EXPECT_EQ(store.quarantined_files(), 1u);
  EXPECT_FALSE(fs::exists(dir.path / "junk.hhrs"));
  EXPECT_TRUE(fs::exists(dir.path / "junk.hhrs.bad"));
  // The quarantined file stays out of every subsequent scan.
  EXPECT_EQ(store.reload(), 0u);
  ResultStore reopened(dir.path);
  EXPECT_EQ(reopened.size(), 0u);
  EXPECT_EQ(reopened.dropped_records(), 0u);
  EXPECT_EQ(reopened.quarantined_files(), 0u);
}

TEST(ResultStore, TinyPartialFileIsLeftPendingNotQuarantined) {
  const TempDir dir("tiny");
  fs::create_directories(dir.path);
  // Shorter than the shard header: could be a live writer that just
  // created the file — must NOT be quarantined or counted dropped.
  std::ofstream(dir.path / "young.hhrs") << "HH";
  ResultStore store(dir.path);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.dropped_records(), 0u);
  EXPECT_EQ(store.quarantined_files(), 0u);
  EXPECT_TRUE(fs::exists(dir.path / "young.hhrs"));
}

TEST(ResultStore, WriterNamespaceTagsShardFilenames) {
  const TempDir dir("namespace");
  ResultStore store(dir.path, "worker/7");  // '/' must be sanitized
  EXPECT_EQ(store.writer_namespace(), "worker_7");
  auto writer = store.open_shard();
  writer->append(TrialKey{1, 1, 0}, sample_stats(0));
  writer->flush();
  std::size_t shards = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    ++shards;
    EXPECT_NE(entry.path().filename().string().find("shard-worker_7-"),
              std::string::npos)
        << entry.path();
  }
  EXPECT_EQ(shards, 1u);
}

TEST(ResultStore, ReloadPicksUpAnotherWritersRecords) {
  const TempDir dir("reload");
  ResultStore reader(dir.path, "reader");
  EXPECT_EQ(reader.size(), 0u);
  {
    ResultStore writer_store(dir.path, "writer");
    auto writer = writer_store.open_shard();
    for (std::uint32_t i = 0; i < 5; ++i) {
      writer->append(TrialKey{3, 3, i}, sample_stats(i));
    }
  }
  // Nothing visible until an explicit reload; then everything is.
  EXPECT_EQ(reader.find(TrialKey{3, 3, 0}), nullptr);
  EXPECT_EQ(reader.reload(), 5u);
  EXPECT_EQ(reader.size(), 5u);
  EXPECT_NE(reader.find(TrialKey{3, 3, 4}), nullptr);
  // A second reload with nothing new indexes nothing.
  EXPECT_EQ(reader.reload(), 0u);
  EXPECT_EQ(reader.dropped_records(), 0u);
}

TEST(ResultStore, ReloadReverifiesATornTailThatCompletesLater) {
  const TempDir dir("reload-torn");
  fs::path shard;
  {
    ResultStore store(dir.path);
    auto writer = store.open_shard();
    for (std::uint32_t i = 0; i < 3; ++i) {
      writer->append(TrialKey{4, 4, i}, sample_stats(i));
    }
  }
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    shard = entry.path();
  }
  // Keep the complete image, then truncate mid-record to simulate a read
  // that raced a live writer's append.
  std::string full;
  {
    std::ifstream in(shard, std::ios::binary);
    full.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  fs::resize_file(shard, full.size() - 20);
  ResultStore reader(dir.path);
  EXPECT_EQ(reader.size(), 2u);
  EXPECT_EQ(reader.dropped_records(), 1u);
  // The "writer" finishes its append; reload must recover the record the
  // first scan saw only partially.
  std::ofstream(shard, std::ios::binary) << full;
  EXPECT_EQ(reader.reload(), 1u);
  EXPECT_EQ(reader.size(), 3u);
  EXPECT_NE(reader.find(TrialKey{4, 4, 2}), nullptr);
}

TEST(ResultStore, CompactMergesEveryShardIntoOne) {
  const TempDir dir("compact");
  {
    ResultStore a(dir.path, "a");
    ResultStore b(dir.path, "b");
    auto wa = a.open_shard();
    auto wb = b.open_shard();
    for (std::uint32_t i = 0; i < 6; ++i) {
      (i % 2 == 0 ? wa : wb)->append(TrialKey{8, 8, i}, sample_stats(i));
    }
  }
  ResultStore store(dir.path, "merger");
  EXPECT_EQ(store.shard_files(), 2u);
  EXPECT_EQ(store.size(), 6u);
  const auto report = store.compact();
  EXPECT_EQ(report.records, 6u);
  EXPECT_EQ(report.removed_files, 2u);
  EXPECT_EQ(store.shard_files(), 1u);
  EXPECT_EQ(store.size(), 6u);
  for (std::uint32_t i = 0; i < 6; ++i) {
    ASSERT_NE(store.find(TrialKey{8, 8, i}), nullptr);
    EXPECT_EQ(store.find(TrialKey{8, 8, i})->rounds, 17.0 + i);
  }
  // A cold reopen of the compacted directory sees the same index, and a
  // second compact is a no-op shape-wise (one shard in, one shard out).
  ResultStore reopened(dir.path);
  EXPECT_EQ(reopened.shard_files(), 1u);
  EXPECT_EQ(reopened.size(), 6u);
  EXPECT_EQ(reopened.dropped_records(), 0u);
}

TEST(ResultStore, CompactClosesPooledWritersBeforeRemovingTheirShards) {
  // After a run the store holds its writers open for the next one. Once
  // reload() has indexed their shards, compact() removes those files, so
  // it must close the writers too: the next run's records would otherwise
  // go to an unlinked file and be lost to every later open.
  const TempDir dir("compact-pool");
  const std::vector<Scenario> scenarios = {Scenario::of(
      "a", core::AlgorithmKind::kSimple, test::small_config(32, 2, 1))};
  const Runner runner(RunnerOptions{2});
  {
    ResultStore store(dir.path);
    (void)runner.run_resumable(scenarios, 4, 0xA, store);
    (void)store.reload();
    EXPECT_GE(store.compact().removed_files, 1u);
    (void)runner.run_resumable(scenarios, 4, 0xB, store);
  }
  ResultStore reopened(dir.path);
  for (const std::uint64_t seed : {0xA, 0xB}) {
    ResumeReport report;
    (void)runner.run_resumable(scenarios, 4, seed, reopened, &report);
    EXPECT_EQ(report.cells_cached, 4u) << "base seed " << seed;
  }
}

TEST(ResultStore, WriterWhoseAppendTornIsClosedNotPooled) {
  // A torn append ends its shard for readers, so that writer must never be
  // handed out again; the next writer's records must survive a reopen.
  struct FaultGuard {
    ~FaultGuard() { util::fault::disarm(); }
  } guard;
  const TempDir dir("torn-pool");
  {
    ResultStore store(dir.path);
    {
      auto writer = store.acquire_writer();
      writer->append(TrialKey{3, 3, 0}, sample_stats(0));
      util::fault::arm("store.append.torn=fail@1");
      writer->append(TrialKey{3, 3, 1}, sample_stats(1));
      util::fault::disarm();
      EXPECT_TRUE(writer->write_failed());
    }
    auto writer = store.acquire_writer();
    EXPECT_FALSE(writer->write_failed());
    writer->append(TrialKey{3, 3, 2}, sample_stats(2));
  }
  ResultStore reopened(dir.path);
  EXPECT_EQ(reopened.shard_files(), 2u);
  EXPECT_EQ(reopened.dropped_records(), 1u);
  EXPECT_NE(reopened.find(TrialKey{3, 3, 0}), nullptr);
  EXPECT_EQ(reopened.find(TrialKey{3, 3, 1}), nullptr);
  EXPECT_NE(reopened.find(TrialKey{3, 3, 2}), nullptr);
}

TEST(ScenarioFingerprint, SensitiveToOutcomeAffectingFields) {
  const Scenario base = Scenario::of("a", core::AlgorithmKind::kSimple,
                                     test::small_config(64, 4, 2));
  const std::uint64_t fp = scenario_fingerprint(base);

  Scenario other = base;
  other.config.num_ants = 65;
  EXPECT_NE(scenario_fingerprint(other), fp);

  other = base;
  other.algorithm = "quorum";
  EXPECT_NE(scenario_fingerprint(other), fp);

  other = base;
  other.config.qualities[1] = 0.5;
  EXPECT_NE(scenario_fingerprint(other), fp);

  other = base;
  other.config.stability_rounds = 3;
  EXPECT_NE(scenario_fingerprint(other), fp);

  other = base;
  other.config.noise.count_sigma = 0.1;
  EXPECT_NE(scenario_fingerprint(other), fp);

  other = base;
  other.params.n_estimate_error = 0.2;
  EXPECT_NE(scenario_fingerprint(other), fp);
}

TEST(ScenarioFingerprint, InsensitiveToPresentationAndPerTrialFields) {
  const Scenario base = Scenario::of("a", core::AlgorithmKind::kSimple,
                                     test::small_config(64, 4, 2));
  const std::uint64_t fp = scenario_fingerprint(base);

  Scenario other = base;
  other.name = "renamed/for/display";
  other.axes.push_back({"n", 64.0, "64"});
  EXPECT_EQ(scenario_fingerprint(other), fp);

  // The per-trial seed is overwritten by the runner; it must not split
  // the cache.
  other = base;
  other.config.seed = 999;
  EXPECT_EQ(scenario_fingerprint(other), fp);

  // Scalar and packed are bit-identical by the §1 equivalence contract,
  // so they deliberately share cache entries.
  other = base;
  other.config.engine = core::EngineKind::kScalar;
  EXPECT_EQ(scenario_fingerprint(other), fp);
}

TEST(BinaryIo, CodecRoundTripsAndDetectsTruncation) {
  std::vector<std::uint8_t> bytes;
  util::put_u8(bytes, 0xAB);
  util::put_u32(bytes, 0xDEADBEEF);
  util::put_u64(bytes, 0x0123456789ABCDEFULL);
  util::put_f64(bytes, -0.25);
  util::ByteReader r(bytes);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.f64(), -0.25);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  (void)r.u32();  // past the end
  EXPECT_FALSE(r.ok());
}

TEST(BinaryIo, StreamingHashMatchesBufferHash) {
  std::vector<std::uint8_t> bytes;
  util::put_u32(bytes, 77);
  util::put_f64(bytes, 3.5);
  util::Fnv64 h;
  h.u32(77);
  h.f64(3.5);
  EXPECT_EQ(h.digest(), util::fnv1a64(bytes));
}

}  // namespace
}  // namespace hh::analysis
