// End-to-end tests of the sweep service: an in-process Server plus real
// TCP clients. The load-bearing contract is byte-identity — serve+client
// must produce EXACTLY the CSV a cold offline run writes, and a warm
// resubmission must be 100% cache-served with identical output. The chaos
// section exercises the fault model (DESIGN.md §8): cancel, drain,
// crash-at-injected-point, and reattach must all preserve that contract.
#include "service/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "analysis/report.hpp"
#include "analysis/runner.hpp"
#include "analysis/spec.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "test_util.hpp"
#include "util/csv.hpp"
#include "util/fault_inject.hpp"
#include "util/socket.hpp"

namespace hh::service {
namespace {

namespace fs = std::filesystem;

analysis::ExperimentSpec tiny_spec() {
  analysis::SweepEntry entry;
  entry.name = "serve-tiny";
  entry.trials = 3;
  entry.base_seed = 0xF00D;
  entry.sweep = analysis::SweepSpec("serve-tiny")
                    .base(test::small_config(48, 2, 1))
                    .algorithms({core::AlgorithmKind::kSimple,
                                 core::AlgorithmKind::kOptimal})
                    .colony_sizes({32, 48});
  analysis::ExperimentSpec spec;
  spec.name = "serve-e2e";
  spec.sweeps.push_back(std::move(entry));
  return spec;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The bytes bench_spec's write_csv would emit for this batch.
std::string offline_csv_bytes(const analysis::BatchResult& batch) {
  std::ostringstream out;
  util::CsvWriter csv(out);
  csv.header(batch.tidy_csv_header());
  for (const auto& row : batch.tidy_rows()) csv.row(row);
  return out.str();
}

struct ServeFixture {
  test::TempDir dir{"service"};
  Server server;

  ServeFixture()
      : server(ServerOptions{
            .host = "127.0.0.1",
            .port = 0,
            .store_dir = (dir.path / "store").string(),
            .threads = 2,
            .writer_namespace = "serve",
        }) {
    server.start();
  }
  ~ServeFixture() {
    server.request_stop();
    server.wait();
  }

  [[nodiscard]] Client connect() const {
    return Client::connect("127.0.0.1", server.port());
  }
};

TEST(Service, HelloPingAndStatusRoundTrip) {
  ServeFixture serve;
  Client client = serve.connect();
  ASSERT_TRUE(client.connected()) << client.error();
  EXPECT_EQ(client.server_store_records(), 0u);
  EXPECT_TRUE(client.ping());
  const util::Json status = client.status();
  ASSERT_TRUE(status.is_object()) << client.error();
  EXPECT_EQ(status.find("jobs_done")->as_number(), 0.0);
  EXPECT_EQ(status.find("store_records")->as_number(), 0.0);
  EXPECT_EQ(status.find("store_shards")->as_number(), 0.0);
  EXPECT_FALSE(status.find("job_running")->as_bool());
}

TEST(Service, StoreShardsStayWithinTheWorkerCountAcrossColdJobs) {
  // Jobs reuse the store's shard writers, so the daemon's shard count (and
  // with it the cost of the per-job reload) does not grow with its history.
  ServeFixture serve;
  Client client = serve.connect();
  ASSERT_TRUE(client.connected()) << client.error();
  for (std::uint64_t job = 0; job < 10; ++job) {
    analysis::ExperimentSpec spec = tiny_spec();
    spec.sweeps[0].base_seed = 0x5EED + job;
    const JobOutcome outcome = client.submit(spec);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.run, 12u);
  }
  const util::Json status = client.status();
  ASSERT_TRUE(status.is_object()) << client.error();
  EXPECT_EQ(status.find("store_records")->as_number(), 120.0);
  EXPECT_GE(status.find("store_shards")->as_number(), 1.0);
  EXPECT_LE(status.find("store_shards")->as_number(), 2.0);  // 2 workers
}

TEST(Service, ColdJobMatchesOfflineRunByteForByte) {
  ServeFixture serve;
  const analysis::ExperimentSpec spec = tiny_spec();

  Client client = serve.connect();
  ASSERT_TRUE(client.connected()) << client.error();
  std::size_t progress_events = 0;
  const JobOutcome outcome = client.submit(
      spec, [&](const util::Json&) { ++progress_events; });
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.job_id, "job-000001");
  EXPECT_EQ(outcome.cells_total, 12u);
  EXPECT_EQ(outcome.cached, 0u);
  EXPECT_EQ(outcome.run, 12u);
  EXPECT_GE(progress_events, 1u);
  ASSERT_EQ(outcome.sweeps.size(), 1u);
  EXPECT_EQ(outcome.sweeps[0].csv_name, "spec_serve_tiny");

  // Byte-identity against a cold offline run of the same spec.
  const analysis::Runner runner(analysis::RunnerOptions{1});
  const analysis::BatchResult offline = runner.run(
      spec.sweeps[0].expand(), spec.sweeps[0].trials, spec.sweeps[0].base_seed);
  const fs::path out_dir = serve.dir.path / "client_out";
  const auto paths = write_outcome_csvs(outcome, out_dir.string());
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(slurp(paths[0]), offline_csv_bytes(offline));

  // The job record landed under <store>/jobs.
  EXPECT_FALSE(outcome.record_path.empty());
  EXPECT_TRUE(fs::exists(outcome.record_path));
}

TEST(Service, WarmResubmissionIsFullyCachedAndIdentical) {
  ServeFixture serve;
  const analysis::ExperimentSpec spec = tiny_spec();

  Client first = serve.connect();
  ASSERT_TRUE(first.connected()) << first.error();
  const JobOutcome cold = first.submit(spec);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.run, 12u);

  // A NEW connection resubmitting the same spec: zero simulation.
  Client second = serve.connect();
  ASSERT_TRUE(second.connected()) << second.error();
  EXPECT_EQ(second.server_store_records(), 12u);
  const JobOutcome warm = second.submit(spec);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.cells_total, 12u);
  EXPECT_EQ(warm.cached, 12u);
  EXPECT_EQ(warm.run, 0u);

  const auto cold_paths =
      write_outcome_csvs(cold, (serve.dir.path / "cold").string());
  const auto warm_paths =
      write_outcome_csvs(warm, (serve.dir.path / "warm").string());
  ASSERT_EQ(cold_paths.size(), 1u);
  ASSERT_EQ(warm_paths.size(), 1u);
  EXPECT_EQ(slurp(cold_paths[0]), slurp(warm_paths[0]));
}

TEST(Service, MalformedLinesGetErrorEventsNotDisconnects) {
  ServeFixture serve;
  util::net::Socket socket =
      util::net::Socket::connect_tcp("127.0.0.1", serve.server.port());
  ASSERT_TRUE(socket.valid());
  util::net::LineReader reader(socket);
  std::string line;
  ASSERT_TRUE(reader.next_line(line));
  EXPECT_EQ(parse_event(line).kind, "hello");

  ASSERT_TRUE(socket.send_all("this is not json\n"));
  ASSERT_TRUE(reader.next_line(line));
  EXPECT_EQ(parse_event(line).kind, "error");

  ASSERT_TRUE(socket.send_all("{\"op\":\"frobnicate\"}\n"));
  ASSERT_TRUE(reader.next_line(line));
  EXPECT_EQ(parse_event(line).kind, "error");

  ASSERT_TRUE(socket.send_all("{\"op\":\"submit\",\"spec\":{\"bogus\":1}}\n"));
  ASSERT_TRUE(reader.next_line(line));
  EXPECT_EQ(parse_event(line).kind, "error");

  // The session survived all three: a ping still answers.
  ASSERT_TRUE(socket.send_all("{\"op\":\"ping\"}\n"));
  ASSERT_TRUE(reader.next_line(line));
  EXPECT_EQ(parse_event(line).kind, "pong");
}

TEST(Service, ShutdownOverTheWireStopsTheServer) {
  test::TempDir dir("service-stop");
  Server server(ServerOptions{.store_dir = (dir.path / "store").string(),
                              .threads = 1});
  server.start();
  Client client = Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.connected()) << client.error();
  EXPECT_TRUE(client.shutdown_server());
  server.wait();  // must return: accept + scheduler + sessions all joined
}

TEST(Service, SpecCsvNameMatchesBenchSpecNaming) {
  // The naming contract behind byte-identity: both sides sanitize the
  // sweep name the same way.
  EXPECT_EQ(spec_csv_name("idle-vs-simple"), "spec_idle_vs_simple");
  EXPECT_EQ(spec_csv_name("a b/c"), "spec_a_b_c");
  EXPECT_EQ(spec_csv_name("Alnum09"), "spec_Alnum09");
}

TEST(Service, ParseJobIdAcceptsAllSpellings) {
  EXPECT_EQ(parse_job_id("job-000007"), 7u);
  EXPECT_EQ(parse_job_id("job-7"), 7u);
  EXPECT_EQ(parse_job_id("7"), 7u);
  EXPECT_FALSE(parse_job_id("job-0").has_value());  // never assigned
  EXPECT_FALSE(parse_job_id("").has_value());
  EXPECT_FALSE(parse_job_id("job-").has_value());
  EXPECT_FALSE(parse_job_id("7x").has_value());
  EXPECT_FALSE(parse_job_id("job-99999999999999999999").has_value());
}

TEST(Service, BackoffIsDeterministicBoundedAndDecorrelated) {
  const RetryPolicy policy{.max_attempts = 8, .base_ms = 50,
                           .cap_ms = 2000, .seed = 42};
  EXPECT_EQ(next_backoff_ms(policy, 1, 0, 0), 0u);  // first attempt: no wait
  unsigned prev = 0;
  for (unsigned attempt = 2; attempt <= 8; ++attempt) {
    const unsigned delay = next_backoff_ms(policy, attempt, prev, 0);
    EXPECT_GE(delay, policy.base_ms);
    EXPECT_LE(delay, policy.cap_ms);
    // Deterministic: same (policy, attempt, prev) → same delay.
    EXPECT_EQ(delay, next_backoff_ms(policy, attempt, prev, 0));
    prev = delay;
  }
  // Different seeds decorrelate the jitter streams.
  RetryPolicy other = policy;
  other.seed = 43;
  EXPECT_NE(next_backoff_ms(policy, 3, 100, 0),
            next_backoff_ms(other, 3, 100, 0));
}

TEST(Service, OversizedRequestLineGetsErrorNotDisconnect) {
  test::TempDir dir("service-maxline");
  Server server(ServerOptions{.store_dir = (dir.path / "store").string(),
                              .threads = 1,
                              .max_line_bytes = 256});
  server.start();
  util::net::Socket socket =
      util::net::Socket::connect_tcp("127.0.0.1", server.port());
  ASSERT_TRUE(socket.valid());
  util::net::LineReader reader(socket);
  std::string line;
  ASSERT_TRUE(reader.next_line(line));
  EXPECT_EQ(parse_event(line).kind, "hello");

  // A line far over the cap: discarded whole, answered with an error.
  ASSERT_TRUE(socket.send_all(std::string(4096, 'x') + "\n"));
  ASSERT_TRUE(reader.next_line(line));
  const Event error = parse_event(line);
  EXPECT_EQ(error.kind, "error");
  EXPECT_NE(error.body.find("message")->as_string().find("exceeds"),
            std::string::npos);

  // An oversized line small enough to arrive whole in one recv batch
  // (newline included) must be rejected identically, not parsed.
  ASSERT_TRUE(socket.send_all(std::string(300, 'y') + "\n"));
  ASSERT_TRUE(reader.next_line(line));
  const Event batched = parse_event(line);
  EXPECT_EQ(batched.kind, "error");
  EXPECT_NE(batched.body.find("message")->as_string().find("exceeds"),
            std::string::npos);

  // The session survived; a normal request still answers.
  ASSERT_TRUE(socket.send_all("{\"op\":\"ping\"}\n"));
  ASSERT_TRUE(reader.next_line(line));
  EXPECT_EQ(parse_event(line).kind, "pong");
}

TEST(Service, IdleSessionGetsHeartbeats) {
  test::TempDir dir("service-hb");
  Server server(ServerOptions{.store_dir = (dir.path / "store").string(),
                              .threads = 1,
                              .heartbeat_ms = 50});
  server.start();
  util::net::Socket socket =
      util::net::Socket::connect_tcp("127.0.0.1", server.port());
  ASSERT_TRUE(socket.valid());
  util::net::LineReader reader(socket);
  std::string line;
  ASSERT_TRUE(reader.next_line(line));
  EXPECT_EQ(parse_event(line).kind, "hello");
  // Say nothing: the server must volunteer an hb on its poll tick.
  ASSERT_TRUE(reader.next_line(line));
  EXPECT_EQ(parse_event(line).kind, "hb");
}

TEST(Service, SilentSessionIsDroppedAtTheIdleDeadline) {
  test::TempDir dir("service-deadline");
  Server server(ServerOptions{.store_dir = (dir.path / "store").string(),
                              .threads = 1,
                              .heartbeat_ms = 0,
                              .read_deadline_ms = 100});
  server.start();
  util::net::Socket socket =
      util::net::Socket::connect_tcp("127.0.0.1", server.port());
  ASSERT_TRUE(socket.valid());
  util::net::LineReader reader(socket);
  std::string line;
  ASSERT_TRUE(reader.next_line(line));
  EXPECT_EQ(parse_event(line).kind, "hello");
  // No heartbeats + nothing sent: the deadline reaps the session.
  ASSERT_TRUE(reader.next_line(line));
  const Event error = parse_event(line);
  EXPECT_EQ(error.kind, "error");
  EXPECT_NE(error.body.find("message")->as_string().find("idle deadline"),
            std::string::npos);
  EXPECT_FALSE(reader.next_line(line));  // ...and the socket closes
}

TEST(Service, ReattachAndCancelRejectBadOrUnknownIds) {
  ServeFixture serve;
  util::net::Socket socket =
      util::net::Socket::connect_tcp("127.0.0.1", serve.server.port());
  ASSERT_TRUE(socket.valid());
  util::net::LineReader reader(socket);
  std::string line;
  ASSERT_TRUE(reader.next_line(line));

  const auto expect_error = [&](const std::string& request,
                                const std::string& needle) {
    ASSERT_TRUE(socket.send_all(request + "\n"));
    ASSERT_TRUE(reader.next_line(line));
    const Event event = parse_event(line);
    EXPECT_EQ(event.kind, "error") << request;
    EXPECT_NE(event.body.find("message")->as_string().find(needle),
              std::string::npos)
        << event.body.find("message")->as_string();
  };
  expect_error("{\"op\":\"reattach\",\"job\":\"wat\"}", "bad job id");
  expect_error("{\"op\":\"reattach\",\"job\":\"job-009999\"}", "unknown job");
  expect_error("{\"op\":\"reattach\"}", "needs a string");
  expect_error("{\"op\":\"cancel\",\"job\":\"wat\"}", "bad job id");
  expect_error("{\"op\":\"cancel\",\"job\":\"909\"}", "unknown job");
}

TEST(Service, DuplicateConcurrentSubmissionsBothSucceedOneFullyCached) {
  ServeFixture serve;
  const analysis::ExperimentSpec spec = tiny_spec();
  JobOutcome a, b;
  std::thread ta([&] {
    Client client = serve.connect();
    a = client.submit(spec);
  });
  std::thread tb([&] {
    Client client = serve.connect();
    b = client.submit(spec);
  });
  ta.join();
  tb.join();
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  // The scheduler is serial: whichever job ran second was served entirely
  // from the first one's flushed shards.
  EXPECT_EQ(a.run + b.run, 12u);
  EXPECT_EQ(std::max(a.run, b.run), 12u);
  EXPECT_EQ(a.cached + b.cached, 12u);
  const auto pa = write_outcome_csvs(a, (serve.dir.path / "a").string());
  const auto pb = write_outcome_csvs(b, (serve.dir.path / "b").string());
  ASSERT_EQ(pa.size(), 1u);
  ASSERT_EQ(pb.size(), 1u);
  EXPECT_EQ(slurp(pa[0]), slurp(pb[0]));
}

TEST(Service, ClientDisconnectMidStreamDoesNotWedgeTheScheduler) {
  ServeFixture serve;
  const analysis::ExperimentSpec spec = tiny_spec();
  {
    // Submit on a raw socket and hang up right after acceptance: the
    // scheduler must finish the job into the store with its sink dead.
    util::net::Socket socket =
        util::net::Socket::connect_tcp("127.0.0.1", serve.server.port());
    ASSERT_TRUE(socket.valid());
    util::net::LineReader reader(socket);
    std::string line;
    ASSERT_TRUE(reader.next_line(line));  // hello
    Request request;
    request.op = Request::Op::kSubmit;
    request.spec = spec;
    ASSERT_TRUE(socket.send_all(encode_request(request) + "\n"));
    ASSERT_TRUE(reader.next_line(line));
    EXPECT_EQ(parse_event(line).kind, "accepted");
  }  // socket closes here, mid-job
  // A fresh client resubmits: if the scheduler wedged this blocks forever;
  // if the orphaned job completed, the rerun is fully cached.
  Client client = serve.connect();
  ASSERT_TRUE(client.connected()) << client.error();
  const JobOutcome warm = client.submit(spec);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.cached, 12u);
  EXPECT_EQ(warm.run, 0u);
}

TEST(Service, ReattachCompletedJobReplaysFullyCachedAndIdentical) {
  ServeFixture serve;
  const analysis::ExperimentSpec spec = tiny_spec();
  Client first = serve.connect();
  ASSERT_TRUE(first.connected()) << first.error();
  const JobOutcome cold = first.submit(spec);
  ASSERT_TRUE(cold.ok) << cold.error;

  // Reattach to the DONE job: uniform replay — rerun under the original
  // id, every cell cache-served, stream and CSV identical.
  Client again = serve.connect();
  ASSERT_TRUE(again.connected()) << again.error();
  const JobOutcome replay = again.reattach(cold.job_id);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_EQ(replay.job_id, cold.job_id);
  EXPECT_EQ(replay.cached, 12u);
  EXPECT_EQ(replay.run, 0u);
  const auto p1 = write_outcome_csvs(cold, (serve.dir.path / "c1").string());
  const auto p2 = write_outcome_csvs(replay, (serve.dir.path / "c2").string());
  ASSERT_EQ(p1.size(), 1u);
  ASSERT_EQ(p2.size(), 1u);
  EXPECT_EQ(slurp(p1[0]), slurp(p2[0]));
}

// --- chaos: cancel / drain / crash + reattach ------------------------------

/// Disarms process-global fault state on scope exit (tests stay
/// order-independent even when an ASSERT bails out early).
struct FaultGuard {
  ~FaultGuard() { util::fault::disarm(); }
};

TEST(ServiceChaos, CancelRunningJobStopsAtBlockBoundaryThenRerunCompletes) {
  ServeFixture serve;
  const analysis::ExperimentSpec spec = tiny_spec();
  // Stretch every block so the cancel lands mid-job deterministically.
  FaultGuard guard;
  util::fault::arm("runner.block.flushed=delay@1+:30");

  Client watcher = serve.connect();
  Client control = serve.connect();
  ASSERT_TRUE(watcher.connected());
  ASSERT_TRUE(control.connected());
  std::atomic<bool> cancel_sent{false};
  const JobOutcome outcome =
      watcher.submit(spec, [&](const util::Json&) {
        if (!cancel_sent.exchange(true)) {
          EXPECT_TRUE(control.cancel("job-000001")) << control.error();
        }
      });
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("canceled"), std::string::npos)
      << outcome.error;

  // The record is terminal and keeps the spec for later reattach.
  const std::string record =
      slurp(serve.dir.path / "store" / "jobs" / "job-000001.json");
  EXPECT_NE(record.find("\"state\": \"canceled\""), std::string::npos);
  EXPECT_NE(record.find("\"spec\""), std::string::npos);

  // Everything flushed before the cancel stays cached; a rerun finishes
  // the job and matches a cold offline run byte for byte.
  util::fault::disarm();
  const JobOutcome rerun = control.submit(spec);
  ASSERT_TRUE(rerun.ok) << rerun.error;
  EXPECT_GT(rerun.cached, 0u);
  EXPECT_EQ(rerun.cached + rerun.run, 12u);
  const analysis::Runner runner(analysis::RunnerOptions{1});
  const analysis::BatchResult offline = runner.run(
      spec.sweeps[0].expand(), spec.sweeps[0].trials, spec.sweeps[0].base_seed);
  const auto paths =
      write_outcome_csvs(rerun, (serve.dir.path / "rerun").string());
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(slurp(paths[0]), offline_csv_bytes(offline));
}

TEST(ServiceChaos, CancelQueuedJobNeverRuns) {
  ServeFixture serve;
  const analysis::ExperimentSpec spec = tiny_spec();
  FaultGuard guard;
  util::fault::arm("runner.block.flushed=delay@1+:30");

  // Job 1 occupies the scheduler; job 2 waits in the queue.
  JobOutcome first;
  std::thread runner_thread([&] {
    Client client = serve.connect();
    first = client.submit(spec);
  });
  Client control = serve.connect();
  ASSERT_TRUE(control.connected());
  while (true) {  // wait until job 1 is actually running
    const util::Json status = control.status();
    ASSERT_TRUE(status.is_object()) << control.error();
    if (status.find("job_running")->as_bool()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  util::net::Socket queued =
      util::net::Socket::connect_tcp("127.0.0.1", serve.server.port());
  ASSERT_TRUE(queued.valid());
  util::net::LineReader reader(queued);
  std::string line;
  ASSERT_TRUE(reader.next_line(line));  // hello
  Request request;
  request.op = Request::Op::kSubmit;
  request.spec = spec;
  ASSERT_TRUE(queued.send_all(encode_request(request) + "\n"));
  ASSERT_TRUE(reader.next_line(line));
  const Event accepted = parse_event(line);
  EXPECT_EQ(accepted.kind, "accepted");
  const std::string job2 = accepted.body.find("job")->as_string();

  EXPECT_TRUE(control.cancel(job2)) << control.error();
  ASSERT_TRUE(reader.next_line(line));
  EXPECT_EQ(parse_event(line).kind, "canceled");
  runner_thread.join();
  EXPECT_TRUE(first.ok) << first.error;
  const std::string record = slurp(serve.dir.path / "store" / "jobs" /
                                   (job2 + ".json"));
  EXPECT_NE(record.find("\"state\": \"canceled\""), std::string::npos);
}

TEST(ServiceChaos, DrainInterruptsRunningJobAndReattachCompletesIdentical) {
  test::TempDir dir("service-drain");
  const analysis::ExperimentSpec spec = tiny_spec();
  const std::string store_dir = (dir.path / "store").string();
  FaultGuard guard;

  {
    Server server(ServerOptions{.store_dir = store_dir, .threads = 2});
    server.start();
    util::fault::arm("runner.block.flushed=delay@1+:30");
    Client watcher = Client::connect("127.0.0.1", server.port());
    ASSERT_TRUE(watcher.connected());
    std::atomic<bool> stopped{false};
    const JobOutcome outcome =
        watcher.submit(spec, [&](const util::Json&) {
          // First block boundary: drain the server mid-job (what the
          // daemon's SIGTERM path calls).
          if (!stopped.exchange(true)) server.request_stop();
        });
    EXPECT_FALSE(outcome.ok);
    EXPECT_NE(outcome.error.find("interrupted"), std::string::npos)
        << outcome.error;
    server.wait();
  }
  util::fault::disarm();

  const std::string record_text =
      slurp(fs::path(store_dir) / "jobs" / "job-000001.json");
  EXPECT_NE(record_text.find("\"state\": \"interrupted\""),
            std::string::npos);

  // Daemon restart: reattach by id completes the job from the flushed
  // shards, byte-identical to a cold offline run.
  Server restarted(ServerOptions{.store_dir = store_dir, .threads = 2});
  restarted.start();
  Client client = Client::connect("127.0.0.1", restarted.port());
  ASSERT_TRUE(client.connected());
  const JobOutcome resumed = client.reattach("job-000001");
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.job_id, "job-000001");
  EXPECT_GT(resumed.cached, 0u);
  EXPECT_EQ(resumed.cached + resumed.run, 12u);
  const analysis::Runner runner(analysis::RunnerOptions{1});
  const analysis::BatchResult offline = runner.run(
      spec.sweeps[0].expand(), spec.sweeps[0].trials, spec.sweeps[0].base_seed);
  const auto paths =
      write_outcome_csvs(resumed, (dir.path / "resumed").string());
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(slurp(paths[0]), offline_csv_bytes(offline));
  // A new submission gets a fresh id: the counter resumed past job 1.
  const JobOutcome fresh = client.submit(spec);
  ASSERT_TRUE(fresh.ok) << fresh.error;
  EXPECT_EQ(fresh.job_id, "job-000002");
}

TEST(ServiceChaos, CrashAtInjectedPointThenReattachCompletesIdentical) {
  // The acceptance scenario, in-process: the "daemon" (a forked gtest
  // death-test child) dies at an injected crash point mid-sweep; the
  // parent restarts a server over the same store, reattaches by job id,
  // and the CSV must match a cold offline run byte for byte.
  test::TempDir dir("service-crash");
  const analysis::ExperimentSpec spec = tiny_spec();
  const std::string store_dir = (dir.path / "store").string();

  EXPECT_EXIT(
      {
        util::fault::arm("runner.block.flushed=crash@2");
        Server server(ServerOptions{.store_dir = store_dir, .threads = 2});
        server.start();
        Client client = Client::connect("127.0.0.1", server.port());
        if (!client.connected()) std::_Exit(3);
        (void)client.submit(spec);  // the crash rips the process out here
        std::_Exit(4);              // unreachable if the fault fired
      },
      ::testing::ExitedWithCode(137), "fault crash at point");

  // The child died after its second block flush: its record is stuck
  // "running" and at least one shard holds flushed cells.
  Server restarted(ServerOptions{.store_dir = store_dir, .threads = 2});
  restarted.start();
  Client client = Client::connect("127.0.0.1", restarted.port());
  ASSERT_TRUE(client.connected());
  const JobOutcome resumed = client.reattach("job-000001");
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_GT(resumed.cached, 0u);
  EXPECT_EQ(resumed.cached + resumed.run, 12u);
  const analysis::Runner runner(analysis::RunnerOptions{1});
  const analysis::BatchResult offline = runner.run(
      spec.sweeps[0].expand(), spec.sweeps[0].trials, spec.sweeps[0].base_seed);
  const auto paths =
      write_outcome_csvs(resumed, (dir.path / "resumed").string());
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(slurp(paths[0]), offline_csv_bytes(offline));
}

TEST(ServiceChaos, SubmitWithRetrySurvivesInjectedClientDrops) {
  ServeFixture serve;
  const analysis::ExperimentSpec spec = tiny_spec();
  FaultGuard guard;
  // Kill the 2nd recv on the CLIENT side (in-process, the fault also hits
  // server reads — sticky-free @N keeps it one-shot). The retry loop must
  // reconnect and reattach to the same job.
  util::fault::arm("socket.recv=fail@2");
  const RetryPolicy policy{.max_attempts = 4, .base_ms = 1, .cap_ms = 5,
                           .seed = 7};
  const JobOutcome outcome =
      submit_with_retry("127.0.0.1", serve.server.port(), spec, policy);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.cells_total, 12u);
  ASSERT_EQ(outcome.sweeps.size(), 1u);
  const analysis::Runner runner(analysis::RunnerOptions{1});
  const analysis::BatchResult offline = runner.run(
      spec.sweeps[0].expand(), spec.sweeps[0].trials, spec.sweeps[0].base_seed);
  const auto paths =
      write_outcome_csvs(outcome, (serve.dir.path / "retry").string());
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(slurp(paths[0]), offline_csv_bytes(offline));
}

}  // namespace
}  // namespace hh::service
