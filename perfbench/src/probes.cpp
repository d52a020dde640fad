#include "probes.hpp"

#include <algorithm>

#include "common.hpp"

namespace perfbench {

namespace {

/// Results of probed calls are summed here so none can be optimised away.
volatile std::size_t g_sink = 0;

/// Time `call` in 15 batches of roughly 10 ms each (after a calibration
/// pass) and return the median per-call time plus allocations per call.
template <typename Fn>
ProbeResult measure(Fn&& call) {
  constexpr int kBatches = 15;
  constexpr double kBatchNs = 1e7;
  call();  // warm
  std::uint64_t iters = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) call();
    const double ns = seconds_between(t0, Clock::now()) * 1e9;
    if (ns >= kBatchNs / 4 || iters >= (1u << 24)) {
      iters = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(static_cast<double>(iters) * kBatchNs /
                                        std::max(ns, 1.0)));
      break;
    }
    iters *= 4;
  }
  std::vector<double> per_call;
  std::uint64_t allocs = 0;
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t before = allocations();
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) call();
    const double ns = seconds_between(t0, Clock::now()) * 1e9;
    allocs += allocations() - before;
    per_call.push_back(ns / static_cast<double>(iters));
  }
  return {median(per_call),
          static_cast<double>(allocs) / static_cast<double>(kBatches * iters)};
}

}  // namespace

ProbeResult probe_pairing(hh::env::PairingKind kind, std::uint32_t m,
                          double active_share, std::uint64_t seed) {
  m = std::max<std::uint32_t>(m, 1);
  std::vector<std::uint8_t> active(m);
  hh::util::SplitMix64 draw(seed);
  for (auto& a : active) {
    a = static_cast<double>(draw.next() >> 11) * 0x1.0p-53 < active_share ? 1 : 0;
  }
  const auto model = hh::env::make_pairing_model(kind);
  hh::util::Rng rng(seed);
  hh::env::PairingScratch scratch;
  scratch.reserve(m);
  std::uint32_t round = 0;
  return measure([&] {
    model->pair_active(active, hh::env::PairingCtx{rng, seed, ++round},
                       scratch);
  });
}

const char* shape_name(RoundShape shape) {
  switch (shape) {
    case RoundShape::kAllSearch: return "all-search";
    case RoundShape::kAllGo: return "all-go";
    case RoundShape::kAllRecruit: return "all-recruit";
    case RoundShape::kMixed: return "mixed";
  }
  return "?";
}

ProbeResult probe_env_round(hh::env::PairingKind kind, std::uint32_t n,
                            std::uint32_t k, RoundShape shape, const OpMix& mix,
                            std::uint64_t seed, std::uint32_t& recruit_slots) {
  hh::env::EnvironmentConfig cfg;
  cfg.num_ants = n;
  cfg.qualities = hh::core::SimulationConfig::binary_qualities(k, k / 2);
  cfg.seed = seed;
  cfg.enforce_model = false;  // the packed engine runs unvalidated
  hh::env::HomeNestBackend world(std::move(cfg),
                                 hh::env::make_pairing_model(kind));
  using hh::env::MaskedOp;
  std::vector<MaskedOp> op(n, MaskedOp::kSearch);
  std::vector<hh::env::NestId> targets(n, 0);
  std::vector<std::uint8_t> active(n, 0);
  world.step_masked_go_quiet(op, targets);
  // Legalise: every ant goes to / advertises the nest it found in round 1.
  hh::util::SplitMix64 draw(seed ^ 0x9e3779b97f4a7c15ULL);
  const auto u01 = [&] {
    return static_cast<double>(draw.next() >> 11) * 0x1.0p-53;
  };
  recruit_slots = 0;
  for (hh::env::AntId a = 0; a < n; ++a) {
    targets[a] = world.location(a);
    const double u = u01() * (mix.search + mix.go + mix.recruit);
    switch (shape) {
      case RoundShape::kAllSearch: op[a] = MaskedOp::kSearch; break;
      case RoundShape::kAllGo: op[a] = MaskedOp::kGo; break;
      case RoundShape::kAllRecruit: op[a] = MaskedOp::kRecruit; break;
      case RoundShape::kMixed:
        op[a] = u < mix.recruit               ? MaskedOp::kRecruit
                : u < mix.recruit + mix.go    ? MaskedOp::kGo
                                              : MaskedOp::kSearch;
        break;
    }
    if (op[a] == MaskedOp::kRecruit) {
      active[a] = u01() < mix.active ? 1 : 0;
      ++recruit_slots;
    }
  }
  const auto round = [&] {
    if (recruit_slots > 0) {
      world.step_masked_recruit_quiet(op, active, targets);
    } else {
      world.step_masked_go_quiet(op, targets);
    }
  };
  for (int warmup = 0; warmup < 64; ++warmup) round();
  return measure(round);
}

ProbeResult probe_lattice_round(std::uint32_t n,
                                const hh::env::LatticeConfig& config,
                                std::uint64_t seed) {
  hh::env::LatticeBackend world(n, config, seed);
  const std::vector<hh::env::MaskedOp> op(n, hh::env::MaskedOp::kSearch);
  const std::vector<hh::env::NestId> targets(n, 0);
  return measure([&] { world.step_masked_go_quiet(op, targets); });
}

ProbeResult probe_store_find(const hh::analysis::ResultStore& store,
                             const std::vector<hh::analysis::TrialKey>& keys) {
  if (keys.empty()) return {};
  ProbeResult r = measure([&] {
    for (const auto& key : keys) g_sink = g_sink + (store.find(key) != nullptr ? 1 : 0);
  });
  r.ns_per_call /= static_cast<double>(keys.size());
  r.allocs_per_call /= static_cast<double>(keys.size());
  return r;
}

ProbeResult probe_parse_event(const std::vector<std::string>& lines) {
  if (lines.empty()) return {};
  ProbeResult r = measure([&] {
    for (const auto& line : lines) {
      g_sink = g_sink + hh::service::parse_event(line).kind.size();
    }
  });
  r.ns_per_call /= static_cast<double>(lines.size());
  r.allocs_per_call /= static_cast<double>(lines.size());
  return r;
}

}  // namespace perfbench
