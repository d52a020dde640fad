// The resident sweep daemon: accepts NDJSON requests over localhost TCP,
// schedules submitted ExperimentSpecs on a persistent Runner, dedups
// every (scenario_fingerprint, trial, trial_seed) cell against a shared
// ResultStore, and streams progress/aggregate events back to the
// submitting session.
//
// Threading model (DESIGN.md §7):
//   * accept thread      — serve_forever(): hands sockets to sessions;
//   * session threads    — one per connection: parse requests, enqueue
//                          jobs, answer ping/status inline, tick
//                          heartbeats and the idle deadline. All writes
//                          to a session socket go through its own mutex,
//                          so scheduler events and inline replies
//                          interleave whole-line, never mid-byte;
//   * scheduler thread   — exactly ONE: owns the Runner and the store.
//                          Jobs run serially; the store reload()s before
//                          each job, so every job sees all cells any
//                          earlier job (or prior daemon life) persisted.
//                          Serial execution is what makes reload() safe —
//                          find() never races a writer in this process.
//
// Fault model (DESIGN.md §8): every job's lifecycle state is persisted in
// <store>/jobs/job-NNNNNN.json (atomic tmp+rename) from acceptance on, so
// a client can reattach by id after either side dies; cancel and drain
// stop a running job cooperatively at its next block boundary, keeping
// every flushed cell cached. Job ids stay monotonic across daemon
// restarts, and records left non-terminal by a crash are marked
// "interrupted" at startup.
//
// Results are bit-identical to a cold `bench_spec --spec` run of the same
// spec: same Runner seeding, same store fingerprints, same tidy rows.
#ifndef HH_SERVICE_SERVER_HPP
#define HH_SERVICE_SERVER_HPP

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/result_store.hpp"
#include "analysis/runner.hpp"
#include "service/job.hpp"
#include "service/protocol.hpp"
#include "util/socket.hpp"

namespace hh::service {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;   ///< 0 = kernel-assigned (read back via port())
  std::string store_dir;    ///< REQUIRED: the shared result-store directory
  unsigned threads = 0;     ///< runner workers (0 = all cores)
  /// Writer namespace for this daemon's shards. Run N daemons against one
  /// store dir by giving each its own namespace.
  std::string writer_namespace = "serve";
  /// Heartbeat cadence: every session receives an "hb" event at least
  /// this often while idle (0 = no heartbeats). Lets clients distinguish
  /// a slow sweep from a dead daemon.
  unsigned heartbeat_ms = 5000;
  /// Idle deadline: a session is dropped after this long with no inbound
  /// request AND no successfully sent event (0 = never). Heartbeats count
  /// as sends, so with them enabled only peers that stopped ACKing — or
  /// connected and never spoke with heartbeats off — are reaped.
  unsigned read_deadline_ms = 300000;
  /// Longest accepted request line; longer lines are discarded whole and
  /// answered with an error event (bounds per-session memory).
  std::size_t max_line_bytes = 8u << 20;
};

class Server {
 public:
  /// Binds, opens the store, and scans jobs/ — stale non-terminal records
  /// from a crashed daemon life are marked "interrupted" and the id
  /// counter resumes past the highest record. Throws std::runtime_error
  /// when the address can't be bound or store_dir is empty.
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  [[nodiscard]] const analysis::ResultStore& store() const { return store_; }

  /// Accept loop; returns once request_stop() is called. Call directly
  /// (daemon main) or via start() (tests, in-process benches).
  void serve_forever();

  /// serve_forever() on a background thread.
  void start();

  /// Graceful drain (SIGTERM/shutdown verb): close the listener, cancel
  /// queued jobs (records -> "canceled", their watchers get a canceled
  /// event), and flag the in-flight job to stop at its next block
  /// boundary (record -> "interrupted"; every flushed cell stays cached
  /// for the reattach that finishes the job). Async; pair with wait().
  void request_stop();

  /// Join everything started by start()/serve_forever(). Idempotent.
  void wait();

 private:
  /// One connected client: its socket plus the write lock that keeps
  /// event lines whole under concurrent writers.
  struct Session {
    util::net::Socket socket;
    std::mutex write_mutex;
    std::atomic<bool> alive{true};
    /// steady-clock ms of the last successful send — half of the idle
    /// deadline (the other half, last receive, lives in session_loop).
    std::atomic<long long> last_tx_ms{0};
  };

  /// Where a job is in its lifecycle, mirrored by its on-disk record.
  enum class JobPhase {
    kQueued, kRunning, kDone, kFailed, kCanceled, kInterrupted
  };
  struct JobEntry {
    JobPhase phase = JobPhase::kQueued;
    std::shared_ptr<JobControl> control;
  };

  void session_loop(const std::shared_ptr<Session>& session);
  void handle_request(const std::shared_ptr<Session>& session,
                      const std::string& line);
  void handle_submit(const std::shared_ptr<Session>& session,
                     Request& request);
  void handle_reattach(const std::shared_ptr<Session>& session,
                       const Request& request);
  void handle_cancel(const std::shared_ptr<Session>& session,
                     const Request& request);
  void scheduler_loop();
  void execute_job(Job& job);

  void set_phase(std::uint64_t id, JobPhase phase);
  [[nodiscard]] std::filesystem::path jobs_dir() const;
  [[nodiscard]] std::filesystem::path record_path(std::uint64_t id) const;
  /// Persist a job record (atomic tmp+rename); "" on failure. `sweeps`
  /// (the per-sweep run manifests) is attached when non-null.
  std::string write_job_record(std::uint64_t id,
                               const analysis::ExperimentSpec& spec,
                               const char* state, const util::Json* sweeps,
                               const std::string& message);
  bool write_record_json(const std::filesystem::path& path,
                         const util::Json& record);
  [[nodiscard]] std::optional<util::Json> load_job_record(
      std::uint64_t id) const;
  /// Startup pass over jobs/: resume the id counter and mark records a
  /// dead daemon left "queued"/"running" as "interrupted".
  void scan_job_records();

  /// Send one event line to a session; marks it dead on failure.
  static void send_line(const std::shared_ptr<Session>& session,
                        const std::string& line);
  /// An EventSink bound to `session` (drops silently once it died).
  [[nodiscard]] static EventSink session_sink(
      const std::shared_ptr<Session>& session);
  [[nodiscard]] util::Json status_json();
  /// Copy the store's record, shard and quarantine counts into the
  /// atomics status/hello read (the store itself is scheduler-owned).
  void publish_store_counts();

  ServerOptions options_;
  util::net::Listener listener_;
  analysis::ResultStore store_;
  analysis::Runner runner_;
  JobQueue queue_;

  /// Jobs this daemon life has seen, by id — the cancel/reattach lookup
  /// table. Guarded by jobs_mutex_; never hold it while taking the queue
  /// lock (the submit path acquires queue -> jobs).
  std::map<std::uint64_t, JobEntry> jobs_;
  std::mutex jobs_mutex_;

  std::thread scheduler_;
  std::thread accept_thread_;       ///< only under start()
  std::vector<std::thread> session_threads_;
  std::vector<std::shared_ptr<Session>> sessions_;
  std::mutex sessions_mutex_;

  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> jobs_done_{0};
  std::atomic<std::size_t> jobs_failed_{0};
  std::atomic<std::size_t> jobs_canceled_{0};
  std::atomic<std::size_t> jobs_interrupted_{0};
  std::atomic<bool> job_running_{false};
  std::atomic<std::size_t> store_records_{0};
  std::atomic<std::size_t> store_quarantined_{0};
  std::atomic<std::size_t> store_shards_{0};
  std::atomic<unsigned> record_nonce_{0};
};

}  // namespace hh::service

#endif  // HH_SERVICE_SERVER_HPP
