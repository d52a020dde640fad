// The served-sweep workload: an in-process service::Server on loopback
// (Runner workers = nproc - 1) driven by one Client connection in a closed
// loop. Each job is a small sweep — simple/quorum/optimal x n in {64, 256,
// 1024} x k in {2, 8} x {permutation, counter-lottery}, plus one
// lattice-walker entry — submitted cold under a fresh base seed, then
// resubmitted warm (every cell cached).
//
// Checks, between jobs and outside their timed windows: each job's rows
// equal an offline Runner::run of the same spec; warm rows equal cold rows
// with cached fraction 1.0.
//
// Traced: every job is also replayed, right after its untraced run, over
// the raw protocol path (encode_request / parse_event) on two more fresh
// servers: once plain, once with spans for accept, run and done tail; the
// pair gives the tracing overhead. Both are counted on the wire. Serial
// TrialArena and traced-Simulation passes over the first job's scenarios,
// and isolated store, protocol and env probes, follow.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "core_layers.hpp"
#include "probes.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using hh::analysis::ExperimentSpec;
using Rows = std::vector<std::vector<double>>;

constexpr std::size_t kTrials = 10;
/// Round cap for every served scenario. Split colonies (quorum and optimal
/// at k = 8) otherwise run to the automatic cap of up to 25000 rounds — a
/// rare, seed-dependent 0.1-1 s cell that would make job times depend on
/// which seeds a run drew. 1000 is 7x the slowest converging trial.
constexpr std::uint32_t kMaxRounds = 1000;
/// The lattice entry: 256 walkers on an 8 x 8 honeycomb torus converge in
/// about 270 rounds (first passage to the antipodal site, 5% tolerance).
constexpr std::uint32_t kLatticeAnts = 256;
constexpr std::uint32_t kLatticeSide = 8;
/// peak_rss_mb is read after this many jobs.
constexpr std::size_t kRssJobs = 20;
/// Set-up samples taken after each job of an untraced run.
constexpr int kSetupsPerJob = 3;

unsigned worker_count() {
  return std::max(1u, std::thread::hardware_concurrency() - 1);
}

ExperimentSpec make_job(std::uint64_t base_seed) {
  using hh::core::AlgorithmKind;
  hh::analysis::SweepEntry home;
  home.name = "served-home";
  home.trials = kTrials;
  home.base_seed = base_seed;
  hh::core::SimulationConfig cfg;
  cfg.max_rounds = kMaxRounds;
  home.sweep = hh::analysis::SweepSpec("served-home")
                   .base(cfg)
                   .algorithms({AlgorithmKind::kSimple, AlgorithmKind::kQuorum,
                                AlgorithmKind::kOptimal})
                   .colony_sizes({64, 256, 1024})
                   .nest_counts({2, 8}, 0.5)
                   .pairings({hh::env::PairingKind::kPermutation,
                              hh::env::PairingKind::kCounter});

  hh::analysis::SweepEntry lattice;
  lattice.name = "served-lattice";
  lattice.trials = kTrials;
  lattice.base_seed = hh::util::mix_seed(base_seed, 1, 0);
  hh::core::SimulationConfig lcfg;
  lcfg.qualities = {1.0};
  lcfg.max_rounds = kMaxRounds;
  lcfg.convergence_tolerance = 0.05;
  lcfg.env_backend = hh::env::BackendKind::kLattice;
  lcfg.lattice.width = kLatticeSide;
  lcfg.lattice.height = kLatticeSide;
  lattice.sweep = hh::analysis::SweepSpec("served-lattice")
                      .base(lcfg)
                      .algorithm(std::string(hh::core::kLatticeWalkerAlgorithmName))
                      .colony_sizes({kLatticeAnts});

  ExperimentSpec spec;
  spec.name = "served-sweep";
  spec.sweeps.push_back(std::move(home));
  spec.sweeps.push_back(std::move(lattice));
  return spec;
}

bool same_rows(const Rows& a, const Rows& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (std::size_t j = 0; j < a[i].size(); ++j) {
      const double x = a[i][j], y = b[i][j];
      if (!(x == y || (std::isnan(x) && std::isnan(y)))) return false;
    }
  }
  return true;
}

std::uint64_t job_seed(std::uint64_t seed, std::size_t job) {
  return hh::analysis::trial_seed(seed, job, 0);
}

/// One served job as the untraced client saw it.
struct Job {
  ExperimentSpec spec;
  double cold_ms = 0.0;
  double first_progress_ms = -1.0;
  double warm_ms = 0.0;
  hh::service::JobOutcome cold;
  hh::service::JobOutcome warm;
};

/// What is kept of a job once it has been checked.
struct JobTimes {
  double cold_ms = 0.0;
  double first_progress_ms = 0.0;
  double warm_ms = 0.0;
  double fresh_cells = 0.0;
  double ant_rounds = 0.0;
};

/// Build and start `server` over a fresh store directory, after handing
/// freed pages back; returns the set-up time in seconds. Destroying the
/// server drains and joins it (Server::~Server).
double timed_start(std::unique_ptr<hh::service::Server>& server,
                   const fs::path& store_dir) {
  server.reset();
  fs::remove_all(store_dir);
  release_free_memory();
  const auto t0 = Clock::now();
  server = std::make_unique<hh::service::Server>(hh::service::ServerOptions{
      .store_dir = store_dir.string(), .threads = worker_count()});
  server->start();
  return seconds_between(t0, Clock::now());
}

/// Check one job against an offline Runner::run of its spec and its warm
/// rows against its cold rows; returns the fresh cells' ant-rounds, read
/// off the offline trials (the cold job ran the same cells).
double check_job(const Job& job, const hh::analysis::Runner& runner,
                 std::size_t index, Report& report) {
  double ant_rounds = 0.0;
  bool ok = job.cold.ok && job.warm.ok &&
            job.cold.sweeps.size() == job.spec.sweeps.size() &&
            job.warm.sweeps.size() == job.spec.sweeps.size() &&
            job.warm.cells_total > 0 && job.warm.cached == job.warm.cells_total &&
            job.cold.run == job.cold.cells_total;
  for (std::size_t s = 0; ok && s < job.spec.sweeps.size(); ++s) {
    const hh::analysis::SweepEntry& entry = job.spec.sweeps[s];
    const hh::analysis::BatchResult offline =
        runner.run(entry.expand(), entry.trials, entry.base_seed);
    const hh::service::SweepResult& cold = job.cold.sweeps[s];
    const hh::service::SweepResult& warm = job.warm.sweeps[s];
    ok = same_rows(cold.rows, offline.tidy_rows()) &&
         cold.csv_header == offline.tidy_csv_header() &&
         same_rows(warm.rows, cold.rows) && warm.csv_header == cold.csv_header;
    for (const hh::analysis::ScenarioResult& r : offline.results) {
      const hh::core::SimulationConfig& c = r.scenario.config;
      for (const hh::analysis::TrialStats& t : r.trials) {
        // RunResult::rounds_executed: decision round + stability window
        // when converged, the (explicit) round cap otherwise.
        const double executed =
            t.converged ? t.rounds + c.stability_rounds : c.max_rounds;
        ant_rounds += executed * c.num_ants;
      }
    }
  }
  report.check(ok, "served job " + std::to_string(index));
  return ant_rounds;
}

/// Called after each job's cold + warm pair and its checks.
using AfterJob = std::function<void(std::size_t, const Job&)>;

/// Cold + warm jobs over `client` until `budget_s` of job time has been
/// measured. Between jobs, outside the timed windows, each job is checked
/// and handed to `after`; only its numbers are kept, so memory does not
/// grow with the run.
std::vector<JobTimes> run_jobs(hh::service::Client& client, std::uint64_t seed,
                               double budget_s, Report& report,
                               const AfterJob& after) {
  const hh::analysis::Runner runner(hh::analysis::RunnerOptions{worker_count()});
  std::vector<JobTimes> times;
  double measured_s = 0.0;
  for (std::size_t j = 0; measured_s < budget_s; ++j) {
    Job job;
    job.spec = make_job(job_seed(seed, j));
    const auto t0 = Clock::now();
    job.cold = client.submit(job.spec, [&](const hh::util::Json&) {
      if (job.first_progress_ms < 0.0) job.first_progress_ms = ms_since(t0);
    });
    job.cold_ms = ms_since(t0);
    const auto t1 = Clock::now();
    job.warm = client.submit(job.spec);
    job.warm_ms = ms_since(t1);
    measured_s += (job.cold_ms + job.warm_ms) * 1e-3;
    const double ant_rounds = check_job(job, runner, j, report);
    if (after) after(j, job);
    times.push_back({job.cold_ms, job.first_progress_ms, job.warm_ms,
                     static_cast<double>(job.cold.run), ant_rounds});
  }
  return times;
}

std::vector<double> pick(const std::vector<JobTimes>& jobs, double JobTimes::*field) {
  std::vector<double> v;
  for (const JobTimes& job : jobs) v.push_back(job.*field);
  return v;
}

/// One job over the raw protocol path, timed and counted on the wire.
struct WireJob {
  bool ok = false;
  double ms = 0.0;
  double accept_ms = 0.0;
  double done_tail_ms = 0.0;
  std::size_t events = 0;
  std::size_t bytes = 0;
  std::vector<Rows> rows;  ///< per sweep_done event
};

/// A raw protocol connection (encode_request / parse_event) to a server of
/// its own over a fresh store. Members are destroyed socket first, so the
/// server then drains an idle session.
struct RawLine {
  std::unique_ptr<hh::service::Server> server;
  hh::util::net::Socket socket;
  hh::util::net::LineReader reader{socket};

  explicit RawLine(const fs::path& store_dir) {
    (void)timed_start(server, store_dir);
    socket = hh::util::net::Socket::connect_tcp("127.0.0.1", server->port());
    std::string hello;
    if (!socket.valid() || !reader.next_line(hello)) {
      throw std::runtime_error("raw protocol connect failed");
    }
  }
  RawLine(const RawLine&) = delete;
  RawLine& operator=(const RawLine&) = delete;
};

/// Submit `spec` over `raw` and read events up to the terminal one. With a
/// tracer, the submit also records its spans (the job, accept, run, done
/// tail) and keeps the event lines; without one it does neither, so the
/// two differ only by the tracing.
WireJob submit_raw(RawLine& raw, const ExperimentSpec& spec, Tracer* tracer,
                   const char* name, std::uint64_t key,
                   std::vector<std::string>& lines) {
  WireJob job;
  hh::service::Request request;
  request.op = hh::service::Request::Op::kSubmit;
  request.spec = spec;
  const std::string out = hh::service::encode_request(request) + "\n";
  const auto sent = Clock::now();
  if (!raw.socket.send_all(out)) return job;
  job.bytes += out.size();
  auto accepted = sent, last_progress = sent, done = sent;
  bool progressed = false;
  std::string line;
  while (raw.reader.next_line(line)) {
    const auto now = Clock::now();
    const hh::service::Event event = hh::service::parse_event(line);
    ++job.events;
    job.bytes += line.size() + 1;
    if (tracer) lines.push_back(line);
    if (event.kind == "accepted") {
      accepted = now;
    } else if (event.kind == "progress") {
      last_progress = now;
      progressed = true;
    } else if (event.kind == "sweep_done") {
      const hh::util::Json* rows = event.body.find("rows");
      job.rows.push_back(rows ? hh::service::rows_from_json(*rows) : Rows{});
    } else if (event.kind == "job_done" || event.kind == "error" ||
               event.kind == "canceled" || event.kind == "interrupted") {
      job.ok = event.kind == "job_done";
      done = now;
      break;
    }
  }
  if (!progressed) last_progress = accepted;
  if (tracer) {
    const std::int32_t root = tracer->record(name, sent, done, kNoParent, key);
    tracer->record("service.accept", sent, accepted, root, key);
    tracer->record("analysis.run", accepted, last_progress, root, key);
    tracer->record("service.done_tail", last_progress, done, root, key);
  }
  job.ms = seconds_between(sent, done) * 1e3;
  job.accept_ms = seconds_between(sent, accepted) * 1e3;
  job.done_tail_ms = seconds_between(last_progress, done) * 1e3;
  return job;
}

std::uintmax_t shard_bytes(const fs::path& dir) {
  std::uintmax_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".hhrs") {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

}  // namespace

Report run_served(const Options& opt) {
  Report report;
  const fs::path work = fs::path(opt.work_dir) / "served";
  std::printf("workload served-sweep: %zu-trial cells, %u runner workers, "
              "seed=%llu\n",
              kTrials, worker_count(), static_cast<unsigned long long>(opt.seed));

  // Set-up is server construction + start (listener, store open, job-record
  // scan, scheduler and accept threads) over an empty store. The serving
  // server is the first sample; kSetupsPerJob throwaway servers are timed
  // after every job, outside the job windows, so the samples see the same
  // host conditions the jobs do. The client connection is left out: its cost
  // is thread wake-up latency, which on a shared host varies several-fold.
  std::vector<double> setup;
  std::unique_ptr<hh::service::Server> server;
  setup.push_back(timed_start(server, work / "store"));
  auto client = std::make_unique<hh::service::Client>(
      hh::service::Client::connect("127.0.0.1", server->port()));
  if (!client->connected()) throw std::runtime_error("connect: " + client->error());

  // Traced: each job is replayed at once over the raw protocol path on two
  // more fresh servers, once plain and once with spans (in alternating
  // order); the untraced client run is the count reference, and the plain
  // replay, paired job by job, the overhead baseline.
  Tracer tracer;
  const fs::path replay_dir = work / "store-traced";
  std::unique_ptr<RawLine> plain_line, traced_line;
  std::vector<std::string> lines;
  std::vector<double> accept_ms, tail_ms;
  double events = 0, bytes = 0, traced_cold_ms = 0, plain_cold_ms = 0;
  double traced_wall_ms = 0;
  bool counts_match = true;
  double rss_mb = 0.0;
  AfterJob after;
  if (!opt.trace) {
    // Peak RSS over set-up and a fixed amount of work: the store index
    // grows with every cold job, so a reading at the end would track how
    // many jobs the host's speed allowed.
    after = [&](std::size_t j, const Job&) {
      if (j + 1 == kRssJobs) rss_mb = peak_rss_mb();
      for (int r = 0; r < kSetupsPerJob; ++r) {
        std::unique_ptr<hh::service::Server> probe;
        setup.push_back(timed_start(probe, work / "store-setup"));
      }
    };
  } else {
    plain_line = std::make_unique<RawLine>(work / "store-raw");
    traced_line = std::make_unique<RawLine>(replay_dir);
    after = [&](std::size_t j, const Job& job) {
      std::vector<std::string> no_lines;
      WireJob plain[2], traced[2];
      const auto replay_plain = [&] {
        plain[0] = submit_raw(*plain_line, job.spec, nullptr, "", j, no_lines);
        plain[1] = submit_raw(*plain_line, job.spec, nullptr, "", j, no_lines);
      };
      const auto replay_traced = [&] {
        const auto t0 = Clock::now();
        traced[0] = submit_raw(*traced_line, job.spec, &tracer, "job.cold", j, lines);
        traced[1] = submit_raw(*traced_line, job.spec, &tracer, "job.warm", j, lines);
        traced_wall_ms += ms_since(t0);
      };
      if (j % 2 == 0) {
        replay_plain();
        replay_traced();
      } else {
        replay_traced();
        replay_plain();
      }
      traced_cold_ms += traced[0].ms;
      plain_cold_ms += plain[0].ms;
      for (const WireJob* w : {&plain[0], &plain[1], &traced[0], &traced[1]}) {
        bool same = w->ok && w->rows.size() == job.cold.sweeps.size();
        for (std::size_t s = 0; same && s < w->rows.size(); ++s) {
          same = same_rows(w->rows[s], job.cold.sweeps[s].rows);
        }
        counts_match = counts_match && same;
      }
      for (const WireJob* w : {&traced[0], &traced[1]}) {
        accept_ms.push_back(w->accept_ms);
        tail_ms.push_back(w->done_tail_ms);
        events += static_cast<double>(w->events);
        bytes += static_cast<double>(w->bytes);
      }
    };
  }
  // A traced run replays every job twice, so it measures a third of the
  // job time.
  const double budget = opt.trace ? opt.seconds / 3 : opt.seconds;
  const std::vector<JobTimes> jobs = run_jobs(*client, opt.seed, budget, report, after);
  client.reset();
  server.reset();
  plain_line.reset();
  traced_line.reset();

  double cold_s = 0.0, fresh = 0.0, ant_rounds = 0.0;
  for (const JobTimes& job : jobs) {
    cold_s += job.cold_ms * 1e-3;
    fresh += job.fresh_cells;
    ant_rounds += job.ant_rounds;
  }
  const std::vector<double> cold_ms = pick(jobs, &JobTimes::cold_ms);
  std::printf("  jobs %zu (%.0f fresh cells in %.3f s cold); cold p50 %.3f ms "
              "p90 %.3f ms; warm p50 %.3f ms; first progress p50 %.3f ms\n",
              jobs.size(), fresh, cold_s, median(cold_ms), quantile(cold_ms, 0.9),
              median(pick(jobs, &JobTimes::warm_ms)),
              median(pick(jobs, &JobTimes::first_progress_ms)));
  if (!opt.trace) print_setup(setup);

  if (!opt.trace) {
    report.add("trials_per_s", ratio(fresh, cold_s), "trials/s");
    report.add("ant_rounds_per_s", ratio(ant_rounds, cold_s), "1/s");
    report.add("p50_ms", median(cold_ms), "ms");
    report.add("setup_s", setup_statistic(setup), "s");
    report.add("peak_rss_mb", rss_mb > 0.0 ? rss_mb : peak_rss_mb(), "MB");
    fs::remove_all(work);
    return report;
  }

  report.check(counts_match, "raw replays repeat the untraced rows");

  std::printf("traced layer table (%zu jobs replayed cold + warm):\n", jobs.size());
  print_layer_table(tracer, traced_wall_ms);

  // Serial passes over the first job's scenarios: TrialArena per cell, then
  // the traced Simulation view of the same cells.
  const ExperimentSpec first = make_job(job_seed(opt.seed, 0));
  double serial_ns = 0.0, cells = 0.0;
  hh::analysis::TrialArena arena;
  for (const hh::analysis::SweepEntry& entry : first.sweeps) {
    const std::vector<hh::analysis::Scenario> scenarios = entry.expand();
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      for (std::size_t t = 0; t < entry.trials; ++t) {
        const auto t0 = Clock::now();
        (void)arena.run(scenarios[s], hh::analysis::trial_seed(entry.base_seed, s, t));
        serial_ns += seconds_between(t0, Clock::now()) * 1e9;
        cells += 1;
      }
    }
  }
  CoreTally tally;
  Tracer core_tracer;
  const auto core_start = Clock::now();
  for (const hh::analysis::SweepEntry& entry : first.sweeps) {
    const std::vector<hh::analysis::Scenario> scenarios = entry.expand();
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      const hh::analysis::Scenario& sc = scenarios[s];
      auto sim = traced_build(sc, hh::analysis::trial_seed(entry.base_seed, s, 0),
                              core_tracer, kNoParent, s, tally);
      for (std::size_t t = 0; t < entry.trials; ++t) {
        (void)traced_trial(sim, sc, hh::analysis::trial_seed(entry.base_seed, s, t),
                           core_tracer, kNoParent, s, tally);
      }
    }
  }
  std::printf("serial traced pass over the first job's cells:\n");
  print_layer_table(core_tracer, ms_since(core_start));
  // Env probes at the job's largest colony and k, under Algorithm 1.
  add_core_env_metrics(tally, {1024, 8, hh::env::PairingKind::kPermutation, opt.seed},
                       report);
  hh::env::LatticeConfig lattice;
  lattice.width = kLatticeSide;
  lattice.height = kLatticeSide;
  const ProbeResult lattice_round = probe_lattice_round(kLatticeAnts, lattice, opt.seed);
  report.add("env.lattice_ns_per_ant", lattice_round.ns_per_call / kLatticeAnts, "ns");
  report.add("env.lattice_allocs_per_call", lattice_round.allocs_per_call, "count");

  report.add("analysis.cell_us", ratio(serial_ns, cells) * 1e-3, "us");
  report.add("analysis.arena_reuse_frac",
             ratio(static_cast<double>(arena.resets()),
                   static_cast<double>(arena.resets() + arena.builds())),
             "fraction");
  report.add("analysis.runner_efficiency",
             ratio(serial_ns * 1e-6, jobs.front().cold_ms * worker_count()),
             "fraction");

  // Store probes over the replay's warm store.
  std::vector<double> open_ms;
  std::size_t records = 0;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    const hh::analysis::ResultStore store(replay_dir, "perfbench-probe");
    open_ms.push_back(ms_since(t0));
    records = store.size();
  }
  const hh::analysis::ResultStore store(replay_dir, "perfbench-probe");
  std::vector<hh::analysis::TrialKey> keys;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (const hh::analysis::SweepEntry& entry : make_job(job_seed(opt.seed, j)).sweeps) {
      const std::vector<hh::analysis::Scenario> scenarios = entry.expand();
      for (std::size_t s = 0; s < scenarios.size(); ++s) {
        const std::uint64_t fp = hh::analysis::scenario_fingerprint(scenarios[s]);
        for (std::size_t t = 0; t < entry.trials; ++t) {
          keys.push_back({fp, hh::analysis::trial_seed(entry.base_seed, s, t),
                          static_cast<std::uint32_t>(t)});
        }
      }
    }
  }
  bool all_found = records == keys.size();
  for (const auto& key : keys) all_found = all_found && store.find(key) != nullptr;
  report.check(all_found, "warm store holds every cell of every job");
  const ProbeResult find = probe_store_find(store, keys);
  const ProbeResult parse = probe_parse_event(lines);
  const double submissions = 2.0 * static_cast<double>(jobs.size());

  report.add("analysis.store_open_ms", median(open_ms), "ms");
  report.add("analysis.store_find_ns", find.ns_per_call, "ns");
  report.add("analysis.store_find_allocs_per_call", find.allocs_per_call, "count");
  report.add("analysis.store_bytes_per_record",
             ratio(static_cast<double>(shard_bytes(replay_dir)),
                   static_cast<double>(records)),
             "B");
  report.add("service.accept_ms", median(accept_ms), "ms");
  report.add("service.first_progress_p50_ms",
             median(pick(jobs, &JobTimes::first_progress_ms)), "ms");
  report.add("service.warm_job_p50_ms", median(pick(jobs, &JobTimes::warm_ms)), "ms");
  report.add("service.done_tail_ms", median(tail_ms), "ms");
  report.add("service.events_per_job", events / submissions, "count");
  report.add("service.bytes_per_job", bytes / submissions, "B");
  report.add("service.parse_event_us", parse.ns_per_call * 1e-3, "us");
  report.add("service.parse_event_allocs_per_call", parse.allocs_per_call, "count");
  report.add("trace.overhead_frac", ratio(traced_cold_ms, plain_cold_ms) - 1.0, "fraction");
  report.add("trace.spans",
             static_cast<double>(tracer.spans().size() + core_tracer.spans().size()),
             "count");
  for (const auto& [t, name] : {std::pair{&tracer, "served-sweep"},
                                std::pair{&core_tracer, "served-sweep-core"}}) {
    const std::string path = opt.work_dir + "/trace-" + name + ".tsv";
    if (t->write_tsv(path)) std::printf("spans written to %s\n", path.c_str());
  }
  fs::remove_all(work);
  return report;
}

}  // namespace perfbench
