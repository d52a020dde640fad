// Sharded, append-only on-disk store of completed trial results — the
// substrate of resumable million-trial sweeps (Runner::run_resumable) and
// of the resident sweep service (service/server.hpp).
//
// A store is a directory of shard files. Each worker thread of a resumable
// run appends fixed-size binary records to its OWN shard (no lock on the
// hot path); the store pools those writers between runs, so one store life
// creates at most one shard per worker however many runs it serves.
// Opening the store scans every shard and builds an in-memory index keyed
// by (scenario fingerprint, trial index, trial seed). A cell
// found in the index is never re-run — and because a trial's result is a
// pure function of (scenario, seed), a batch reconstructed from any mix of
// cached and fresh cells is bit-identical to a cold run at any thread
// count. Kill the process at any point, rerun the same command, and the
// aggregate cannot change.
//
// Cross-process model: N processes may write into ONE directory at once,
// each opening the store with its own writer namespace (a tag baked into
// its shard filenames, so two processes can never race on a file) — there
// is no cross-process locking, on the hot path or anywhere else. Readers
// pick up other writers' records with reload() (incremental: only new
// bytes are parsed, and a tail that was mid-append at the previous scan is
// re-verified). compact() merges every indexed record into a single shard
// and removes the rest — run it only while no other process is writing the
// directory (see DESIGN.md §7 for the invariants).
//
// Durability model: records are framed with a per-record checksum, so a
// shard torn mid-record by a crash (or mid-write kill) loses only its
// unflushed tail — the valid prefix is recovered and the lost cells are
// simply recomputed on resume. See DESIGN.md §4 for the format.
#ifndef HH_ANALYSIS_RESULT_STORE_HPP
#define HH_ANALYSIS_RESULT_STORE_HPP

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/scenario.hpp"

namespace hh::analysis {

/// Identity of one sweep cell: which scenario (by content fingerprint, not
/// name), which trial slot, and which seed that slot resolved to. The seed
/// is part of the key so a scenario reused at a different sweep position
/// (where trial_seed differs) can never alias a cached record.
struct TrialKey {
  std::uint64_t fingerprint = 0;
  std::uint64_t seed = 0;
  std::uint32_t trial = 0;

  [[nodiscard]] bool operator==(const TrialKey&) const = default;
};

struct TrialKeyHash {
  [[nodiscard]] std::size_t operator()(const TrialKey& key) const;
};

/// Content fingerprint of a scenario: a stable 64-bit hash over every
/// field that determines a trial's outcome — algorithm name, colony size,
/// qualities, round caps, stability/tolerance, noise, faults, pairing,
/// skip probability, and algorithm params.
///
/// Deliberately EXCLUDED: the display name and axes (presentation only),
/// config.seed (overwritten per trial; the trial seed is in the key),
/// record_trajectories and enforce_model (side-effect-free — they never
/// change TrialStats), and config.engine (the §1 equivalence contract
/// makes scalar and packed runs bit-identical, so they share cache).
[[nodiscard]] std::uint64_t scenario_fingerprint(const Scenario& scenario);

class ResultStore {
 public:
  /// Open (creating the directory if needed) and index every shard.
  /// Records with bad checksums and torn tails are dropped (counted in
  /// dropped_records()); whole files with a bad header are quarantined —
  /// renamed to *.hhrs.bad and counted in quarantined_files(). A file still
  /// shorter than its header is left pending (a live writer may be
  /// mid-create) and re-checked on the next reload().
  ///
  /// `writer_namespace` tags every shard THIS store creates (letters,
  /// digits, '-', '_'; other characters are replaced with '_'). Give each
  /// process of a shared directory its own namespace so shard files can
  /// never collide; loading is namespace-agnostic — every *.hhrs file in
  /// the directory is indexed regardless of who wrote it.
  explicit ResultStore(std::filesystem::path directory,
                       std::string writer_namespace = {});

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// The cached result for `key`, or nullptr. Safe to call concurrently
  /// with other find()s (the index is immutable outside reload()/
  /// compact()); never call it concurrently with those two.
  [[nodiscard]] const TrialStats* find(const TrialKey& key) const;

  /// Rescan the directory and index everything appended since the last
  /// scan — new shard files (any writer's) and new records on known ones.
  /// Incremental: previously parsed bytes are never re-read, except that
  /// a tail which failed its checksum at the last scan is re-verified (a
  /// record that was MID-APPEND by a live writer then may be complete
  /// now). Returns the number of newly indexed records. Not thread-safe
  /// with find(); the caller serializes (the sweep service reloads
  /// between jobs, never during one).
  std::size_t reload();

  struct CompactReport {
    std::size_t records = 0;        ///< records in the merged shard
    std::size_t removed_files = 0;  ///< old shard files deleted
  };

  /// Merge every indexed record into one freshly written shard and delete
  /// all other shard files, closing the idle pooled writers first (a
  /// writer kept open would append to an unlinked file). Safe against a
  /// crash at any point (the merged shard is complete and checksummed
  /// before anything is removed; duplicate records are idempotent). NOT
  /// safe under concurrent writers in other processes — their open shards
  /// would be unlinked and their records lost to future opens. Run it from
  /// the single coordinating process while the directory is quiescent. On
  /// a failed write (disk full) the store is left untouched.
  CompactReport compact();

  /// Indexed records / shard files scanned / invalid records dropped.
  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] std::size_t shard_files() const { return files_.size(); }
  [[nodiscard]] std::size_t dropped_records() const { return dropped_; }
  /// Shards quarantined since open: files whose HEADER failed verification
  /// (foreign or corrupted file, not a torn tail) are renamed to
  /// `<shard>.hhrs.bad` so they are never rescanned and an operator can
  /// inspect them. Cumulative count; surfaced in ResumeReport and the
  /// daemon's status output.
  [[nodiscard]] std::size_t quarantined_files() const { return quarantined_; }
  [[nodiscard]] const std::filesystem::path& directory() const { return dir_; }
  [[nodiscard]] const std::string& writer_namespace() const { return ns_; }

  /// Append-only writer over one worker-private shard file. Not
  /// thread-safe — one writer per worker. flush() pushes buffered records
  /// to the OS (so they survive a SIGKILL of this process); the
  /// destructor flushes too. A failed write (disk full) is reported to
  /// stderr once and exposed via write_failed() — the run's RESULTS stay
  /// correct either way; only resumability of this run's cells is lost.
  class ShardWriter {
   public:
    void append(const TrialKey& key, const TrialStats& stats);
    void flush();
    [[nodiscard]] bool write_failed() const { return write_failed_; }
    ~ShardWriter();

   private:
    friend class ResultStore;
    ShardWriter(std::ofstream out);

    std::ofstream out_;
    std::vector<std::uint8_t> buffer_;  // reused per record
    bool write_failed_ = false;
    std::unique_ptr<ShardWriter> next_idle_;  // link in the store's pool
  };

  /// Create a new shard file for one worker. Thread-safe (file naming is
  /// serialized); the returned writer itself is single-threaded.
  [[nodiscard]] std::unique_ptr<ShardWriter> open_shard();

  /// Deleter of a pooled writer: hands it back to its store, flushed, for
  /// the next acquire_writer(); a writer whose write failed is closed
  /// instead (its shard may end in a torn record, past which readers stop).
  /// Allocates nothing and never throws, so it is safe while a run unwinds.
  struct ReturnToPool {
    ResultStore* store = nullptr;
    void operator()(ShardWriter* writer) const noexcept;
  };
  using PooledWriter = std::unique_ptr<ShardWriter, ReturnToPool>;

  /// A writer for one worker of a run: an idle one a finished run handed
  /// back (appending to the shard it already has), else open_shard(). It
  /// returns to the pool when the holder drops it; the store must outlive
  /// it. Thread-safe.
  [[nodiscard]] PooledWriter acquire_writer();

 private:
  /// Per-shard-file scan cursor (reload() resumes parsing here).
  struct ShardState {
    std::uintmax_t offset = 0;  ///< bytes consumed through last valid record
    bool header_ok = false;
    bool dead = false;  ///< bad header: never read this file again
    bool quarantined = false;  ///< renamed to *.hhrs.bad; cursor removable
    /// Offset whose invalid record was already counted in dropped_ (so a
    /// persistently-torn tail is not re-counted every reload).
    std::uintmax_t counted_bad_at = static_cast<std::uintmax_t>(-1);
  };

  /// Parse everything after state.offset; returns newly indexed records.
  std::size_t scan_shard(const std::filesystem::path& path, ShardState& state);
  /// Index all *.hhrs files (new cursors for unseen paths).
  std::size_t scan_directory();
  /// Reserve the next shard filename for this writer (serialized).
  std::filesystem::path next_shard_path();

  std::filesystem::path dir_;
  std::string ns_;
  // Audited: the only iteration is compact(), which sorts records by key
  // before writing (byte-identical merged shards regardless of hash
  // order); find()/insert never feed ordered output.
  std::unordered_map<TrialKey, TrialStats, TrialKeyHash> index_;  // lint: order-independent
  /// Scan cursors keyed by path; std::map for deterministic scan order.
  std::map<std::filesystem::path, ShardState> files_;
  std::size_t dropped_ = 0;
  std::size_t quarantined_ = 0;

  std::mutex shard_mutex_;      // guards shard naming and idle_writers_
  std::uint64_t session_ = 0;   // per-open nonce, keeps shard names unique
  unsigned next_shard_ = 0;
  /// Writers handed back by finished runs: a stack linked through
  /// ShardWriter::next_idle_, so handing one back allocates nothing.
  std::unique_ptr<ShardWriter> idle_writers_;
};

}  // namespace hh::analysis

#endif  // HH_ANALYSIS_RESULT_STORE_HPP
