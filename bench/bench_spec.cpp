// The generic file-driven sweep runner: executes ANY serialized
// ExperimentSpec — including specs for algorithms registered through
// registry v2 that no hand-written driver knows about (e.g. the
// idle-search variant; see examples/idle_search_sweep.json):
//
//   ./bench_spec --spec examples/idle_search_sweep.json
//   ./bench_spec --algorithms          # what can a spec reference?
//   ./bench_thm_5_11_simple --dump-spec | ./bench_spec --spec -
//
// Accepts the standard driver flags (--resume-dir/--threads/--trials/
// --seed/--progress, and --dump-spec to echo the canonical normalized
// form). Every sweep's tidy table goes to stdout, its tidy CSV to
// bench_out/spec_<sweep>.csv, and a run manifest (spec identity, git sha,
// engine split) to bench_out/spec_<sweep>.manifest.json.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "anthill.hpp"

namespace {

int list_algorithms() {
  auto& registry = hh::core::AlgorithmRegistry::instance();
  hh::util::Table table({"algorithm", "engines", "world", "params", "summary"});
  for (const std::string& name : registry.names()) {
    const auto spec = registry.find(name);
    std::string params;
    for (const std::string& key : spec->params) {
      if (!params.empty()) params += ",";
      params += key;
    }
    table.begin_row()
        .cell(name)
        .cell(spec->pack ? "packed" : "scalar-only")
        .cell(std::string(hh::env::backend_name(spec->env_backend)))
        .cell(params.empty() ? "-" : params)
        .cell(spec->summary.empty() ? "-" : spec->summary);
  }
  std::cout << table.render();
  std::printf(
      "\nparameter schema (set under \"params\" in a spec file):\n");
  for (const hh::core::ParamInfo& info : hh::core::algorithm_param_table()) {
    std::printf("  %-22.*s [%g, %g]  %.*s\n",
                static_cast<int>(info.key.size()), info.key.data(),
                info.min_value, info.max_value,
                static_cast<int>(info.doc.size()), info.doc.data());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--algorithms") == 0) return list_algorithms();
  }
  const hh::analysis::cli::Options options =
      hh::analysis::cli::parse_options(argc, argv, "bench_spec");
  if (options.spec_path.empty()) {
    std::fprintf(stderr,
                 "bench_spec needs --spec FILE (or --algorithms to list "
                 "what specs can reference)\n");
    return 2;
  }

  hh::analysis::ExperimentSpec spec;
  try {
    spec = hh::analysis::load_experiment_spec(options.spec_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  for (hh::analysis::SweepEntry& entry : spec.sweeps) {
    if (options.trials) entry.trials = *options.trials;
    if (options.base_seed) entry.base_seed = *options.base_seed;
  }
  if (options.dump_spec) {
    std::cout << hh::analysis::dump_experiment_spec(spec) << '\n';
    return 0;
  }

  const hh::analysis::Runner runner(
      hh::analysis::RunnerOptions{options.threads});
  for (const hh::analysis::SweepEntry& entry : spec.sweeps) {
    std::printf("\n[%s / %s] %zu scenario(s) x %zu trial(s), seed %llu, %u "
                "threads\n",
                spec.name.empty() ? "spec" : spec.name.c_str(),
                entry.name.c_str(), entry.size(), entry.trials,
                static_cast<unsigned long long>(entry.base_seed),
                runner.threads());
    const hh::analysis::BatchResult batch = hh::analysis::run_sweep(
        runner, entry.expand(), entry.trials, entry.base_seed,
        options.resume_dir,
        options.progress ? hh::analysis::stderr_progress(entry.name)
                         : hh::analysis::ProgressFn{});
    std::cout << batch.tidy_table().render();
    // spec_csv_name is the naming contract shared with anthill-client:
    // both must emit the same file for the same sweep.
    const std::string path = hh::analysis::write_csv(
        hh::service::spec_csv_name(entry.name), batch.tidy_csv_header(),
        batch.tidy_rows());
    if (!path.empty()) {
      std::printf("csv: %s\n", path.c_str());
      hh::analysis::ManifestInfo info;
      info.threads = runner.threads();
      info.store_dir = options.resume_dir;
      const std::string manifest =
          hh::analysis::write_run_manifest(path, batch, info);
      if (!manifest.empty()) std::printf("manifest: %s\n", manifest.c_str());
    }
  }
  return 0;
}
