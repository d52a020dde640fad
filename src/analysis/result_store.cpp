#include "analysis/result_store.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <span>
#include <stdexcept>

#include "analysis/spec.hpp"
#include "util/binary_io.hpp"
#include "util/contracts.hpp"
#include "util/fault_inject.hpp"
#include "util/rng.hpp"

namespace hh::analysis {

namespace {

// Shard file layout (all little-endian; see DESIGN.md §4):
//   header:  magic u32 'HHRS', version u32
//   records: payload (kPayloadBytes) + checksum32(payload)
// Payload: fingerprint u64, seed u64, trial u32, converged u8, rounds f64,
// winner u32, winner_quality f64, recruitments f64.
constexpr std::uint32_t kShardMagic = 0x53524848;  // "HHRS"
constexpr std::uint32_t kShardVersion = 1;
constexpr std::size_t kHeaderBytes = 8;
constexpr std::size_t kPayloadBytes = 8 + 8 + 4 + 1 + 8 + 4 + 8 + 8;
constexpr std::size_t kRecordBytes = kPayloadBytes + 4;
constexpr const char* kShardExtension = ".hhrs";

void encode_payload(std::vector<std::uint8_t>& out, const TrialKey& key,
                    const TrialStats& stats) {
  util::put_u64(out, key.fingerprint);
  util::put_u64(out, key.seed);
  util::put_u32(out, key.trial);
  util::put_u8(out, stats.converged ? 1 : 0);
  util::put_f64(out, stats.rounds);
  util::put_u32(out, stats.winner);
  util::put_f64(out, stats.winner_quality);
  util::put_f64(out, stats.recruitments);
}

std::string sanitize_namespace(std::string ns) {
  for (char& c : ns) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (!ok) c = '_';
  }
  return ns;
}

}  // namespace

std::size_t TrialKeyHash::operator()(const TrialKey& key) const {
  // The fingerprint and seed are already well-mixed 64-bit values; one
  // extra mix folds the trial index in without a measurable cost.
  return static_cast<std::size_t>(
      util::mix_seed(key.fingerprint ^ key.seed, key.trial));
}

std::uint64_t scenario_fingerprint(const Scenario& scenario) {
  // v2: the hash input IS the canonical serialized identity (analysis/
  // spec.hpp) — the very bytes `--dump-spec` emits for the scenario's
  // outcome-determining fields. A spec-file-driven sweep therefore shares
  // every cached cell with the flag-driven run it was dumped from, and a
  // field added to AlgorithmParams (one algorithm_param_table() row)
  // reaches the fingerprint with no edit here.
  util::Fnv64 h;
  h.str("hh.scenario.v2");
  h.str(scenario_identity_json(scenario));
  return h.digest();
}

ResultStore::ResultStore(std::filesystem::path directory,
                         std::string writer_namespace)
    : dir_(std::move(directory)), ns_(sanitize_namespace(std::move(writer_namespace))) {
  std::filesystem::create_directories(dir_);
  // Nonce for this open: keeps shard names from two sequential (or even
  // concurrent) processes distinct. Result identity never depends on it.
  const auto now = std::chrono::steady_clock::now().time_since_epoch().count();
  session_ = util::mix_seed(static_cast<std::uint64_t>(now),
                            reinterpret_cast<std::uintptr_t>(this));
  (void)scan_directory();
}

std::size_t ResultStore::scan_directory() {
  std::vector<std::filesystem::path> shards;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.is_regular_file() && entry.path().extension() == kShardExtension) {
      shards.push_back(entry.path());
    }
  }
  for (const auto& path : shards) files_.try_emplace(path);
  // files_ is path-sorted, so the scan order is deterministic (directory
  // iteration order is not); duplicate keys hold identical payloads anyway
  // — trials are pure functions of the key — so order only matters for
  // reproducible dropped-record counts.
  std::size_t added = 0;
  for (auto& [path, state] : files_) added += scan_shard(path, state);
  // Quarantined shards were renamed to *.hhrs.bad on disk; drop their scan
  // cursors so shard_files() reflects only live shards.
  std::erase_if(files_,
                [](const auto& entry) { return entry.second.quarantined; });
  return added;
}

std::size_t ResultStore::reload() { return scan_directory(); }

std::size_t ResultStore::scan_shard(const std::filesystem::path& path,
                                    ShardState& state) {
  if (state.dead) return 0;
  std::error_code ec;
  const auto file_size = std::filesystem::file_size(path, ec);
  if (ec) return 0;  // vanished (a compact elsewhere); keep the cursor
  if (file_size <= state.offset && state.header_ok) return 0;

  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  if (!state.header_ok) {
    // A file shorter than its header may be a live writer mid-create:
    // leave it pending and re-check on the next reload().
    if (file_size < kHeaderBytes) return 0;
    // One sized read, not a byte-iterator loop: a cold open over a
    // million-trial store reads tens of MB of shards and this is its cost.
    std::vector<std::uint8_t> head(kHeaderBytes);
    in.read(reinterpret_cast<char*>(head.data()),
            static_cast<std::streamsize>(head.size()));
    util::ByteReader header({head.data(),
                             static_cast<std::size_t>(std::max<std::streamsize>(
                                 in.gcount(), 0))});
    if (header.u32() != kShardMagic || header.u32() != kShardVersion ||
        !header.ok()) {
      // Foreign or corrupted file: quarantine it — rename to *.hhrs.bad so
      // it is never rescanned and an operator can inspect what happened.
      // Visible (dropped + quarantined counters) but never fatal — resume
      // just recomputes.
      state.dead = true;
      ++dropped_;
      ++quarantined_;
      std::filesystem::path bad = path;
      bad += ".bad";
      std::error_code rename_ec;
      std::filesystem::rename(path, bad, rename_ec);
      // If the rename failed (permissions, races) the dead flag still
      // keeps the file skipped; only drop the cursor on success.
      if (!rename_ec) state.quarantined = true;
      return 0;
    }
    state.header_ok = true;
    state.offset = kHeaderBytes;
  }

  std::vector<std::uint8_t> bytes(
      static_cast<std::size_t>(file_size - state.offset));
  in.seekg(static_cast<std::streamoff>(state.offset));
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  bytes.resize(
      static_cast<std::size_t>(std::max<std::streamsize>(in.gcount(), 0)));

  std::size_t added = 0;
  std::size_t offset = 0;
  while (offset + kRecordBytes <= bytes.size()) {
    const std::span<const std::uint8_t> payload{bytes.data() + offset,
                                                kPayloadBytes};
    util::ByteReader tail(
        {bytes.data() + offset + kPayloadBytes, std::size_t{4}});
    if (tail.u32() != util::checksum32(payload)) {
      // Torn or corrupt record: everything after it in this shard is
      // suspect (appends are sequential), so stop reading the file — but
      // keep the cursor HERE. A record torn because its writer (possibly
      // another process) was mid-append is complete on a later reload();
      // genuine corruption just re-fails the same cheap check. Count the
      // drop once per position.
      if (state.counted_bad_at != state.offset) {
        state.counted_bad_at = state.offset;
        ++dropped_;
      }
      return added;
    }
    util::ByteReader r(payload);
    TrialKey key;
    key.fingerprint = r.u64();
    key.seed = r.u64();
    key.trial = r.u32();
    TrialStats stats;
    stats.converged = r.u8() != 0;
    stats.rounds = r.f64();
    stats.winner = r.u32();
    stats.winner_quality = r.f64();
    stats.recruitments = r.f64();
    index_.insert_or_assign(key, stats);
    offset += kRecordBytes;
    state.offset += kRecordBytes;
    ++added;
  }
  if (offset != bytes.size() && state.counted_bad_at != state.offset) {
    // Trailing partial record: same re-verify-on-reload treatment.
    state.counted_bad_at = state.offset;
    ++dropped_;
  }
  return added;
}

const TrialStats* ResultStore::find(const TrialKey& key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &it->second;
}

std::filesystem::path ResultStore::next_shard_path() {
  const std::lock_guard<std::mutex> lock(shard_mutex_);
  std::filesystem::path path;
  do {
    char name[96];
    if (ns_.empty()) {
      std::snprintf(name, sizeof(name), "shard-%016llx-%04u%s",
                    static_cast<unsigned long long>(session_), next_shard_++,
                    kShardExtension);
    } else {
      std::snprintf(name, sizeof(name), "shard-%.32s-%016llx-%04u%s",
                    ns_.c_str(), static_cast<unsigned long long>(session_),
                    next_shard_++, kShardExtension);
    }
    path = dir_ / name;
  } while (std::filesystem::exists(path));
  return path;
}

std::unique_ptr<ResultStore::ShardWriter> ResultStore::open_shard() {
  const std::filesystem::path path = next_shard_path();
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) {
    throw std::runtime_error("result store: cannot create shard " +
                             path.string());
  }
  std::vector<std::uint8_t> header;
  util::put_u32(header, kShardMagic);
  util::put_u32(header, kShardVersion);
  out.write(reinterpret_cast<const char*>(header.data()),
            static_cast<std::streamsize>(header.size()));
  out.flush();
  return std::unique_ptr<ShardWriter>(new ShardWriter(std::move(out)));
}

ResultStore::PooledWriter ResultStore::acquire_writer() {
  {
    const std::lock_guard<std::mutex> lock(shard_mutex_);
    if (idle_writers_ != nullptr) {
      std::unique_ptr<ShardWriter> writer = std::move(idle_writers_);
      idle_writers_ = std::move(writer->next_idle_);
      return PooledWriter(writer.release(), ReturnToPool{this});
    }
  }
  return PooledWriter(open_shard().release(), ReturnToPool{this});
}

void ResultStore::ReturnToPool::operator()(ShardWriter* raw) const noexcept {
  std::unique_ptr<ShardWriter> writer(raw);
  writer->flush();
  if (writer->write_failed()) return;
  const std::lock_guard<std::mutex> lock(store->shard_mutex_);
  writer->next_idle_ = std::move(store->idle_writers_);
  store->idle_writers_ = std::move(writer);
}

ResultStore::CompactReport ResultStore::compact() {
  CompactReport report;
  {
    // The idle writers' shards are among the files removed below.
    const std::lock_guard<std::mutex> lock(shard_mutex_);
    idle_writers_.reset();
  }
  // Snapshot what exists NOW; only these are removed afterwards (a writer
  // racing this call in the same process would be a coordinator bug — see
  // the header contract).
  std::vector<std::filesystem::path> old_files;
  old_files.reserve(files_.size());
  for (const auto& [path, state] : files_) old_files.push_back(path);

  // Deterministic record order: sorted by key, so equal stores compact to
  // byte-identical shards regardless of insertion history.
  std::vector<const std::pair<const TrialKey, TrialStats>*> records;
  records.reserve(index_.size());
  for (const auto& entry : index_) records.push_back(&entry);
  std::sort(records.begin(), records.end(), [](const auto* a, const auto* b) {
    const TrialKey& x = a->first;
    const TrialKey& y = b->first;
    if (x.fingerprint != y.fingerprint) return x.fingerprint < y.fingerprint;
    if (x.trial != y.trial) return x.trial < y.trial;
    return x.seed < y.seed;
  });

  // Write the merged shard under a .tmp name invisible to scans, then
  // publish it with one atomic rename: a crash at ANY point leaves either
  // the old files intact (tmp is garbage, never indexed) or the complete
  // merged shard plus redundant-but-idempotent old files.
  const std::filesystem::path merged = next_shard_path();
  std::filesystem::path tmp = merged;
  tmp += ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) {
      throw std::runtime_error("result store: cannot create merged shard " +
                               tmp.string());
    }
    std::vector<std::uint8_t> header;
    util::put_u32(header, kShardMagic);
    util::put_u32(header, kShardVersion);
    out.write(reinterpret_cast<const char*>(header.data()),
              static_cast<std::streamsize>(header.size()));
    ShardWriter writer(std::move(out));
    for (const auto* entry : records) writer.append(entry->first, entry->second);
    writer.flush();
    if (writer.write_failed()) {
      // Disk full mid-merge: leave the store exactly as it was.
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return report;
    }
  }
  if (util::fault::inject("store.compact.pre_rename")) {
    // Fail verb: abort the compact, store untouched (crash verb never
    // returns — the next open sees only the old shards plus a stray .tmp).
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return report;
  }
  {
    std::error_code ec;
    std::filesystem::rename(tmp, merged, ec);
    if (ec) {
      std::filesystem::remove(tmp, ec);
      return report;
    }
  }
  report.records = records.size();

  // The merged shard is complete and checksummed on disk; removing the old
  // files is now safe at any crash point (duplicates are idempotent).
  if (!util::fault::inject("store.compact.pre_remove")) {
    for (const auto& path : old_files) {
      std::error_code ec;
      if (std::filesystem::remove(path, ec) && !ec) ++report.removed_files;
    }
  }
  files_.clear();
  ShardState state;
  state.header_ok = true;
  state.offset = kHeaderBytes + records.size() * kRecordBytes;
  files_.emplace(merged, state);
  return report;
}

ResultStore::ShardWriter::ShardWriter(std::ofstream out)
    : out_(std::move(out)) {
  buffer_.reserve(kRecordBytes);
}

void ResultStore::ShardWriter::append(const TrialKey& key,
                                      const TrialStats& stats) {
  if (write_failed_) return;  // a failed shard never takes more appends
  buffer_.clear();
  encode_payload(buffer_, key, stats);
  HH_ASSERT(buffer_.size() == kPayloadBytes);
  util::put_u32(buffer_, util::checksum32(buffer_));
  if (util::fault::inject("store.append.torn")) {
    // Chaos: persist half a record — what a crash mid-append leaves on
    // disk — then close this shard to writes. Readers must checksum-drop
    // the torn tail; the run's in-memory results stay correct.
    out_.write(reinterpret_cast<const char*>(buffer_.data()),
               static_cast<std::streamsize>(kRecordBytes / 2));
    out_.flush();
    write_failed_ = true;
    std::fprintf(stderr, "fault: torn record injected; shard closed\n");
    return;
  }
  out_.write(reinterpret_cast<const char*>(buffer_.data()),
             static_cast<std::streamsize>(buffer_.size()));
}

void ResultStore::ShardWriter::flush() {
  if (util::fault::inject("store.flush.skip")) return;  // records stay buffered
  out_.flush();
  // A write failure (disk full, quota) never corrupts results — the
  // in-memory batch is complete regardless — but it must not be silent:
  // the lost records mean the next resume recomputes them.
  if (!out_.good() && !write_failed_) {
    write_failed_ = true;
    std::fprintf(stderr,
                 "result store: shard write failed (disk full?); results "
                 "are intact but this run's records will not resume\n");
  }
}

ResultStore::ShardWriter::~ShardWriter() { flush(); }

}  // namespace hh::analysis
