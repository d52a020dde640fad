#include "service/server.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "analysis/manifest.hpp"
#include "util/fault_inject.hpp"
#include "util/socket.hpp"

namespace hh::service {
namespace {

/// Total (scenario, trial) cells a spec will schedule.
std::size_t spec_cells(const analysis::ExperimentSpec& spec) {
  std::size_t cells = 0;
  for (const analysis::SweepEntry& entry : spec.sweeps) {
    cells += entry.size() * entry.trials;
  }
  return cells;
}

/// Thrown from the scheduler's progress callback when a running job is
/// canceled or the server drains; unwinds run_resumable at the next block
/// boundary (per-worker shard writers flush as they go back to the store's
/// pool, so everything finished stays cached).
struct JobStopped {
  bool drain = false;  ///< true: server drain; false: client cancel
};

long long now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string display_id(std::uint64_t id) {
  Job job;
  job.id = id;
  return job.display_id();
}

const char* phase_name(int phase) {
  switch (phase) {
    case 0: return "queued";
    case 1: return "running";
    case 2: return "done";
    case 3: return "failed";
    case 4: return "canceled";
    case 5: return "interrupted";
  }
  return "unknown";
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      listener_(util::net::Listener::bind_tcp(options_.host, options_.port)),
      store_([&] {
        if (options_.store_dir.empty()) {
          throw std::runtime_error("anthill-serve needs a store directory");
        }
        return options_.store_dir;
      }(), options_.writer_namespace),
      runner_(analysis::RunnerOptions{options_.threads}) {
  if (!listener_.valid()) {
    throw std::runtime_error("cannot bind " + options_.host + ":" +
                             std::to_string(options_.port));
  }
  publish_store_counts();
  scan_job_records();
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

Server::~Server() {
  request_stop();
  wait();
}

void Server::serve_forever() {
  while (true) {
    util::net::Socket socket = listener_.accept();
    if (!socket.valid()) break;  // listener closed: stopping
    auto session = std::make_shared<Session>();
    session->socket = std::move(socket);
    const std::lock_guard<std::mutex> lock(sessions_mutex_);
    if (stopping_.load()) break;  // raced request_stop: drop the socket
    sessions_.push_back(session);
    session_threads_.emplace_back(
        [this, session] { session_loop(session); });
  }
}

void Server::start() {
  accept_thread_ = std::thread([this] { serve_forever(); });
}

void Server::request_stop() {
  if (stopping_.exchange(true)) return;
  listener_.close();
  // Cancel everything still queued (records -> "canceled"); the in-flight
  // job sees stopping_ at its next block boundary and lands "interrupted".
  for (Job& orphan : queue_.close()) {
    set_phase(orphan.id, JobPhase::kCanceled);
    jobs_canceled_.fetch_add(1);
    write_job_record(orphan.id, orphan.spec, "canceled", nullptr,
                     "server shutting down before this job started");
    util::Json body;
    body.set("job", orphan.display_id());
    body.set("message", "server shutting down before this job started");
    orphan.control->emit(encode_event("canceled", body));
  }
}

void Server::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  if (scheduler_.joinable()) scheduler_.join();
  // Only after the scheduler drained: unblock session readers and join.
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<Session>> sessions;
  {
    const std::lock_guard<std::mutex> lock(sessions_mutex_);
    threads.swap(session_threads_);
    sessions.swap(sessions_);
  }
  for (const auto& session : sessions) session->socket.shutdown_both();
  for (std::thread& thread : threads) thread.join();
}

void Server::send_line(const std::shared_ptr<Session>& session,
                       const std::string& line) {
  if (!session->alive.load(std::memory_order_acquire)) return;
  const std::lock_guard<std::mutex> lock(session->write_mutex);
  if (!session->socket.send_all(line) || !session->socket.send_all("\n")) {
    session->alive.store(false, std::memory_order_release);
  } else {
    session->last_tx_ms.store(now_ms(), std::memory_order_relaxed);
  }
}

EventSink Server::session_sink(const std::shared_ptr<Session>& session) {
  return [session](const std::string& line) { send_line(session, line); };
}

util::Json Server::status_json() {
  util::Json body;
  body.set("proto", kProtocolVersion);
  body.set("jobs_pending", static_cast<double>(queue_.pending()));
  body.set("job_running", job_running_.load());
  body.set("jobs_done", static_cast<double>(jobs_done_.load()));
  body.set("jobs_failed", static_cast<double>(jobs_failed_.load()));
  body.set("jobs_canceled", static_cast<double>(jobs_canceled_.load()));
  body.set("jobs_interrupted",
           static_cast<double>(jobs_interrupted_.load()));
  body.set("store_records", static_cast<double>(store_records_.load()));
  body.set("store_quarantined",
           static_cast<double>(store_quarantined_.load()));
  body.set("store_shards", static_cast<double>(store_shards_.load()));
  body.set("store_dir", options_.store_dir);
  return body;
}

void Server::publish_store_counts() {
  store_records_.store(store_.size());
  store_quarantined_.store(store_.quarantined_files());
  store_shards_.store(store_.shard_files());
}

void Server::session_loop(const std::shared_ptr<Session>& session) {
  {
    util::Json hello;
    hello.set("proto", kProtocolVersion);
    hello.set("server", "anthill-serve");
    hello.set("store_dir", options_.store_dir);
    hello.set("store_records", static_cast<double>(store_records_.load()));
    hello.set("store_shards", static_cast<double>(store_shards_.load()));
    send_line(session, encode_event("hello", hello));
  }
  util::net::LineReader reader(session->socket);
  reader.set_max_line(options_.max_line_bytes);
  std::string line;
  long long last_rx = now_ms();
  long long last_hb = last_rx;
  // The session thread multiplexes three duties on one short poll tick:
  // read requests, tick heartbeats, and enforce the idle deadline.
  while (session->alive.load(std::memory_order_acquire)) {
    const auto status = reader.next_line_for(line, 250);
    const long long now = now_ms();
    if (status == util::net::LineReader::Status::kClosed) break;
    if (status == util::net::LineReader::Status::kOverflow) {
      last_rx = now;
      util::Json body;
      body.set("message",
               "request line exceeds " +
                   std::to_string(options_.max_line_bytes) +
                   " bytes; discarded");
      send_line(session, encode_event("error", body));
      continue;
    }
    if (status == util::net::LineReader::Status::kLine) {
      last_rx = now;
      if (!line.empty()) handle_request(session, line);
      continue;
    }
    // kTimeout: no request this tick.
    if (options_.heartbeat_ms > 0 &&
        now - last_hb >= static_cast<long long>(options_.heartbeat_ms)) {
      last_hb = now;
      util::Json body;
      body.set("t_ms", static_cast<double>(now));
      send_line(session, encode_event("hb", body));
    }
    if (options_.read_deadline_ms > 0) {
      const long long last_seen = std::max(
          last_rx, session->last_tx_ms.load(std::memory_order_relaxed));
      if (now - last_seen >=
          static_cast<long long>(options_.read_deadline_ms)) {
        util::Json body;
        body.set("message", "idle deadline exceeded; dropping session");
        send_line(session, encode_event("error", body));
        break;
      }
    }
  }
  session->alive.store(false, std::memory_order_release);
  // Actually hang up: the peer (blocked in a read) must see EOF now, not
  // when the whole server shuts down. shutdown, not close — a scheduler
  // sink may still hold this session and try one more doomed send.
  session->socket.shutdown_both();
}

void Server::handle_request(const std::shared_ptr<Session>& session,
                            const std::string& line) {
  Request request;
  try {
    request = parse_request(line);
  } catch (const ProtocolError& e) {
    util::Json body;
    body.set("message", e.what());
    send_line(session, encode_event("error", body));
    return;
  }
  switch (request.op) {
    case Request::Op::kPing:
      send_line(session, encode_event("pong", util::Json()));
      break;
    case Request::Op::kStatus:
      send_line(session, encode_event("status", status_json()));
      break;
    case Request::Op::kSubmit:
      handle_submit(session, request);
      break;
    case Request::Op::kReattach:
      handle_reattach(session, request);
      break;
    case Request::Op::kCancel:
      handle_cancel(session, request);
      break;
    case Request::Op::kShutdown:
      send_line(session, encode_event("bye", util::Json()));
      request_stop();
      break;
  }
}

void Server::handle_submit(const std::shared_ptr<Session>& session,
                           Request& request) {
  const std::size_t cells = spec_cells(request.spec);
  const std::size_t sweeps = request.spec.sweeps.size();
  auto control = std::make_shared<JobControl>();
  control->set_sink(session_sink(session));
  Job job;
  job.spec = request.spec;  // keep the original for the queued record
  job.control = control;
  const std::uint64_t id = queue_.submit(
      std::move(job), [&](std::uint64_t assigned) {
        // Still under the queue lock: the jobs_ entry and the durable
        // record must exist BEFORE "accepted" hits the wire — the moment
        // the client reads it, a cancel or reattach by this id (possibly
        // from another session) must succeed.
        {
          const std::lock_guard<std::mutex> lock(jobs_mutex_);
          jobs_[assigned] = JobEntry{JobPhase::kQueued, control};
        }
        write_job_record(assigned, request.spec, "queued", nullptr, {});
        util::Json body;
        body.set("job", display_id(assigned));
        body.set("sweeps", static_cast<double>(sweeps));
        body.set("cells", static_cast<double>(cells));
        send_line(session, encode_event("accepted", body));
      });
  if (id == 0) {
    util::Json body;
    body.set("message", "server is shutting down; submission refused");
    send_line(session, encode_event("error", body));
  }
}

void Server::handle_reattach(const std::shared_ptr<Session>& session,
                             const Request& request) {
  const auto error = [&](const std::string& message) {
    util::Json body;
    body.set("message", message);
    send_line(session, encode_event("error", body));
  };
  const auto parsed = parse_job_id(request.job);
  if (!parsed) {
    error("bad job id '" + request.job + "'");
    return;
  }
  const std::uint64_t id = *parsed;
  const auto record = load_job_record(id);
  if (!record) {
    error("unknown job " + display_id(id));
    return;
  }
  std::string prior_state = "done";  // pre-v2 records: written at completion
  if (const util::Json* state = record->find("state");
      state != nullptr && state->is_string()) {
    prior_state = state->as_string();
  }
  const util::Json* spec_json = record->find("spec");
  if (spec_json == nullptr || !spec_json->is_object()) {
    error(display_id(id) + " record has no spec; cannot reattach");
    return;
  }
  analysis::ExperimentSpec spec;
  try {
    spec = analysis::experiment_from_json(*spec_json);
  } catch (const std::exception& e) {
    error(display_id(id) + " record spec unreadable: " + e.what());
    return;
  }
  // Reattach ALWAYS re-enqueues the job's spec under its original id —
  // uniform across terminal, interrupted, and still-active states. The
  // store dedup makes the rerun serve every already-flushed cell from
  // cache, so the replayed event stream (and the CSVs built from it) is
  // bit-identical to what an uninterrupted run would have produced.
  const std::size_t cells = spec_cells(spec);
  const std::size_t sweeps = spec.sweeps.size();
  auto control = std::make_shared<JobControl>();
  control->set_sink(session_sink(session));
  Job job;
  job.id = id;
  job.spec = spec;
  job.control = control;
  job.reattached = true;
  const std::uint64_t submitted = queue_.submit(
      std::move(job), [&](std::uint64_t assigned) {
        // Same ordering as handle_submit: publish the jobs_ entry and the
        // record before the client can learn the id is live again.
        {
          const std::lock_guard<std::mutex> lock(jobs_mutex_);
          jobs_[assigned] = JobEntry{JobPhase::kQueued, control};
        }
        write_job_record(assigned, spec, "queued", nullptr, "reattached");
        util::Json body;
        body.set("job", display_id(assigned));
        body.set("state", prior_state);
        body.set("sweeps", static_cast<double>(sweeps));
        body.set("cells", static_cast<double>(cells));
        send_line(session, encode_event("reattached", body));
      });
  if (submitted == 0) {
    error("server is shutting down; reattach refused");
  }
}

void Server::handle_cancel(const std::shared_ptr<Session>& session,
                           const Request& request) {
  const auto error = [&](const std::string& message) {
    util::Json body;
    body.set("message", message);
    send_line(session, encode_event("error", body));
  };
  const auto parsed = parse_job_id(request.job);
  if (!parsed) {
    error("bad job id '" + request.job + "'");
    return;
  }
  const std::uint64_t id = *parsed;
  JobEntry entry;
  bool known = false;
  {
    const std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(id);
    if (it != jobs_.end()) {
      entry = it->second;
      known = true;
    }
  }
  if (!known) {
    // Not in this daemon life; report what the record says, if any.
    if (const auto record = load_job_record(id)) {
      std::string state = "done";
      if (const util::Json* s = record->find("state");
          s != nullptr && s->is_string()) {
        state = s->as_string();
      }
      error(display_id(id) + " is not active (state: " + state + ")");
    } else {
      error("unknown job " + display_id(id));
    }
    return;
  }
  const auto ack = [&](const char* note) {
    util::Json body;
    body.set("job", display_id(id));
    body.set("note", note);
    send_line(session, encode_event("cancel_ok", body));
  };
  if (entry.phase == JobPhase::kQueued) {
    // jobs_mutex_ is NOT held here (lock ordering: queue before jobs).
    if (auto removed = queue_.remove(id)) {
      set_phase(id, JobPhase::kCanceled);
      jobs_canceled_.fetch_add(1);
      write_job_record(id, removed->spec, "canceled", nullptr,
                       "canceled before start");
      util::Json body;
      body.set("job", display_id(id));
      body.set("message", "canceled before start");
      removed->control->emit(encode_event("canceled", body));
      ack("removed from queue");
      return;
    }
    // Raced the scheduler — it popped the job first; treat as running.
    entry.phase = JobPhase::kRunning;
  }
  if (entry.phase == JobPhase::kRunning) {
    entry.control->stop.store(JobControl::kCancel, std::memory_order_relaxed);
    ack("stopping at next block boundary");
    return;
  }
  error(display_id(id) + " already " +
        phase_name(static_cast<int>(entry.phase)));
}

void Server::scheduler_loop() {
  while (auto job = queue_.pop()) {
    job_running_.store(true);
    execute_job(*job);
    job_running_.store(false);
  }
}

void Server::execute_job(Job& job) {
  const std::string id = job.display_id();
  set_phase(job.id, JobPhase::kRunning);
  write_job_record(job.id, job.spec, "running", nullptr, {});
  const auto emit = [&](const char* kind, util::Json body) {
    body.set("job", id);
    job.control->emit(encode_event(kind, std::move(body)));
  };
  try {
    // Pick up every cell persisted by earlier jobs and by other writers
    // (prior daemon lives, offline bench_spec runs) since the last job.
    store_.reload();
    publish_store_counts();

    analysis::ResumeReport job_total;
    util::Json sweep_records{util::Json::Array{}};
    for (const analysis::SweepEntry& entry : job.spec.sweeps) {
      const std::vector<analysis::Scenario> scenarios = entry.expand();
      // Progress throttling: a block can be as small as one trial, and a
      // million-cell sweep must not produce a million events — cap the
      // stream at ~64 updates per sweep (plus the final one).
      std::size_t last_emitted = 0;
      const analysis::ProgressFn progress =
          [&](const analysis::RunProgress& p) {
            // Cooperative stop: cancel/drain both land here, at a block
            // boundary, where every finished cell is already flushed.
            const int stop = job.control->stop.load(std::memory_order_relaxed);
            if (stop == JobControl::kCancel) throw JobStopped{false};
            if (stop == JobControl::kDrain || stopping_.load()) {
              throw JobStopped{true};
            }
            const std::size_t step =
                std::max<std::size_t>(1, p.cells_fresh_total / 64);
            if (p.cells_fresh_done != p.cells_fresh_total &&
                p.cells_fresh_done < last_emitted + step) {
              return;
            }
            last_emitted = p.cells_fresh_done;
            util::Json body;
            body.set("sweep", entry.name);
            body.set("scenario", static_cast<double>(p.scenario));
            body.set("scenarios", static_cast<double>(p.scenarios_total));
            body.set("cells_done", static_cast<double>(p.cells_done()));
            body.set("cells_total", static_cast<double>(p.cells_total));
            body.set("cached", static_cast<double>(p.cells_cached));
            body.set("fresh_done", static_cast<double>(p.cells_fresh_done));
            body.set("fresh_total", static_cast<double>(p.cells_fresh_total));
            emit("progress", std::move(body));
          };

      analysis::ResumeReport report;
      const analysis::BatchResult batch = runner_.run_resumable(
          scenarios, entry.trials, entry.base_seed, store_, &report,
          progress);
      job_total.cells_total += report.cells_total;
      job_total.cells_cached += report.cells_cached;
      job_total.cells_run += report.cells_run;
      job_total.shards_quarantined =
          std::max(job_total.shards_quarantined, report.shards_quarantined);

      // The sweep's run manifest, reused verbatim as the job record entry.
      analysis::ManifestInfo info;
      info.threads = runner_.threads();
      info.resume = &report;
      info.store_dir = options_.store_dir;
      util::Json record;
      record.set("sweep", entry.name);
      record.set("manifest", analysis::run_manifest_json(batch, info));
      sweep_records.push_back(std::move(record));

      util::Json done;
      done.set("sweep", entry.name);
      done.set("csv_name", spec_csv_name(entry.name));
      done.set("csv_header", strings_to_json(batch.tidy_csv_header()));
      done.set("rows", rows_to_json(batch.tidy_rows()));
      done.set("cells_total", static_cast<double>(report.cells_total));
      done.set("cached", static_cast<double>(report.cells_cached));
      done.set("run", static_cast<double>(report.cells_run));
      emit("sweep_done", std::move(done));
    }

    // Index this job's fresh records so status/hello counts stay current
    // even if no further job runs.
    store_.reload();
    publish_store_counts();

    const std::string record_path =
        write_job_record(job.id, job.spec, "done", &sweep_records, {});
    util::Json done;
    done.set("spec", job.spec.name);
    done.set("cells_total", static_cast<double>(job_total.cells_total));
    done.set("cached", static_cast<double>(job_total.cells_cached));
    done.set("run", static_cast<double>(job_total.cells_run));
    done.set("record", record_path.empty() ? util::Json(nullptr)
                                           : util::Json(record_path));
    emit("job_done", std::move(done));
    jobs_done_.fetch_add(1);
    set_phase(job.id, JobPhase::kDone);
  } catch (const JobStopped& stop) {
    // Worker threads unwound at the block boundary; their shard writers
    // flushed on the way back to the store's pool, so everything finished
    // is durably cached and a reattach completes the job from where it
    // stopped.
    const char* state = stop.drain ? "interrupted" : "canceled";
    const std::string message =
        stop.drain ? "server draining; finished cells are cached — "
                     "reattach to complete"
                   : "canceled by client; finished cells stay cached";
    write_job_record(job.id, job.spec, state, nullptr, message);
    util::Json body;
    body.set("message", message);
    emit(state, std::move(body));
    if (stop.drain) {
      jobs_interrupted_.fetch_add(1);
      set_phase(job.id, JobPhase::kInterrupted);
    } else {
      jobs_canceled_.fetch_add(1);
      set_phase(job.id, JobPhase::kCanceled);
    }
  } catch (const std::exception& e) {
    write_job_record(job.id, job.spec, "failed", nullptr, e.what());
    util::Json body;
    body.set("message", e.what());
    emit("error", std::move(body));
    jobs_failed_.fetch_add(1);
    set_phase(job.id, JobPhase::kFailed);
  }
}

void Server::set_phase(std::uint64_t id, JobPhase phase) {
  const std::lock_guard<std::mutex> lock(jobs_mutex_);
  jobs_[id].phase = phase;
}

std::filesystem::path Server::jobs_dir() const {
  return std::filesystem::path(options_.store_dir) / "jobs";
}

std::filesystem::path Server::record_path(std::uint64_t id) const {
  return jobs_dir() / (display_id(id) + ".json");
}

std::string Server::write_job_record(std::uint64_t id,
                                     const analysis::ExperimentSpec& spec,
                                     const char* state,
                                     const util::Json* sweeps,
                                     const std::string& message) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(jobs_dir(), ec);
  if (ec) return {};
  util::Json record;
  record.set("job", display_id(id));
  record.set("state", state);
  record.set("spec_name", spec.name);
  record.set("git_sha", analysis::build_git_sha());
  if (!message.empty()) record.set("message", message);
  // The full spec document — what reattach replays after a daemon death.
  record.set("spec", analysis::experiment_to_json(spec));
  if (sweeps != nullptr) record.set("sweeps", *sweeps);
  const fs::path path = record_path(id);
  if (!write_record_json(path, record)) return {};
  return path.string();
}

bool Server::write_record_json(const std::filesystem::path& path,
                               const util::Json& record) {
  namespace fs = std::filesystem;
  // Unique tmp suffix: two writers on one id (the reattach-while-active
  // corner) may race, but each rename is atomic — the record is always a
  // complete document from one writer, never interleaved bytes.
  fs::path tmp = path;
  tmp += ".tmp" + std::to_string(record_nonce_.fetch_add(1));
  {
    std::ofstream out(tmp);
    if (!out) return false;
    out << util::dump_json(record, 2) << '\n';
    if (!out) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return false;
    }
  }
  if (util::fault::inject("serve.record.rename")) {
    // Crash window between writing the record and publishing it; the fail
    // verb models a full disk at rename time.
    std::error_code ec;
    fs::remove(tmp, ec);
    return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

std::optional<util::Json> Server::load_job_record(std::uint64_t id) const {
  std::ifstream in(record_path(id));
  if (!in) return std::nullopt;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  try {
    util::Json record = util::parse_json(text);
    if (!record.is_object()) return std::nullopt;
    return record;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

void Server::scan_job_records() {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(jobs_dir(), ec)) return;
  std::uint64_t max_id = 0;
  for (const auto& entry : fs::directory_iterator(jobs_dir(), ec)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& path = entry.path();
    if (path.extension() != ".json") continue;
    const auto id = parse_job_id(path.stem().string());
    if (!id) continue;
    max_id = std::max(max_id, *id);
    const auto record = load_job_record(*id);
    if (!record) continue;
    const util::Json* state = record->find("state");
    // Pre-v2 records carry no state; they were only written at completion.
    if (state == nullptr || !state->is_string()) continue;
    const std::string s = state->as_string();
    if (s != "queued" && s != "running") continue;
    // This job died with the previous daemon life: mark it terminal so
    // nothing ever leaks a non-terminal record, while keeping the spec
    // for reattach.
    util::Json updated = *record;
    updated.set("state", "interrupted");
    updated.set("message", "daemon restarted while this job was " + s);
    write_record_json(path, updated);
  }
  queue_.reserve_ids_through(max_id);
}

}  // namespace hh::service
