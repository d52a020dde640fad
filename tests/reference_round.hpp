// The home-nest round of paper Section 2 in its literal four-phase form,
// kept in the tests as the reference HomeNestBackend is held to (as
// test_permutation_pins keeps a literal Algorithm 1):
//
//   1. validate each call and apply every location update, in ant order
//      (the search landings draw here, and each recruit call's active
//      flag is packed in request order),
//   2. run the pairing process over the packed flags,
//   3. take the end-of-round counts c(i, r),
//   4. deliver the return values, in ant order (the perception draws, under
//      noise, come here), and grant the tandem-run knowledge.
//
// Each phase is its own loop over the ants, and validation throws the
// environment's ModelViolation messages. HomeNestBackend resolves the same
// round in one ant-order pass, the pairing, the matched-pairs bookkeeping
// and the perception pass, so the two must agree on every draw, state,
// return value and message.
#ifndef HH_TESTS_REFERENCE_ROUND_HPP
#define HH_TESTS_REFERENCE_ROUND_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "env/environment.hpp"
#include "env/observation.hpp"
#include "env/pairing.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace hh::test {

class ReferenceWorld {
 public:
  /// The same world as HomeNestBackend(cfg, pairing, noise): the same
  /// default pairing (nullptr: Algorithm 1) and the same seed derivation
  /// for the shared stream and the pairing key.
  ReferenceWorld(env::EnvironmentConfig cfg,
                 std::unique_ptr<env::PairingModel> pairing,
                 const env::NoiseConfig& noise = {})
      : cfg_(std::move(cfg)),
        pairing_(pairing ? std::move(pairing)
                         : std::make_unique<env::PermutationPairing>()),
        observation_(noise),
        observe_exact_(observation_.exact()),
        rng_(cfg_.seed),
        pairing_seed_(util::mix_seed(cfg_.seed, kPairingSeedTag)) {
    pairing_->reserve(pairing_scratch_, cfg_.num_ants);
    location_.assign(cfg_.num_ants, env::kHomeNest);
    count_.assign(num_nests() + 1, 0);
    count_[env::kHomeNest] = cfg_.num_ants;
    knowledge_.assign(
        static_cast<std::size_t>(cfg_.num_ants) * (num_nests() + 1), 0);
    outcomes_.resize(cfg_.num_ants);
  }

  const std::vector<env::Outcome>& step(std::span<const env::Action> actions) {
    HH_EXPECTS(actions.size() == cfg_.num_ants);
    const std::uint32_t k = num_nests();
    stats_ = env::RoundStats{};
    requests_.clear();
    auto& flags = pairing_scratch_.active;
    flags.clear();

    // Phase 1: validate and apply all location updates simultaneously;
    // the search landing draws are made here, in ant order, and each
    // recruit call's active flag is packed in request order.
    for (env::AntId a = 0; a < cfg_.num_ants; ++a) {
      const env::Action action = actions[a];
      if (cfg_.enforce_model) validate(a, action);
      switch (action.kind) {
        case env::ActionKind::kSearch: {
          // search(): i chosen uniformly at random from {1..k}.
          const auto found = static_cast<env::NestId>(1 + rng_.uniform_u64(k));
          location_[a] = found;
          grant_knowledge(a, found);
          outcomes_[a] = env::Outcome{env::ActionKind::kSearch, found, 0.0, 0,
                                      false, false};
          ++stats_.searches;
          break;
        }
        case env::ActionKind::kGo:
          location_[a] = action.target;
          outcomes_[a] = env::Outcome{env::ActionKind::kGo, action.target, 0.0,
                                      0, false, false};
          ++stats_.gos;
          break;
        case env::ActionKind::kRecruit:
          location_[a] = env::kHomeNest;  // recruitment happens at home
          requests_.push_back(
              env::RecruitRequest{a, action.active, action.target});
          flags.push_back(action.active ? 1 : 0);
          outcomes_[a] = env::Outcome{env::ActionKind::kRecruit, action.target,
                                      0.0, 0, false, false};
          if (action.active) {
            ++stats_.active_recruits;
          } else {
            ++stats_.passive_recruits;
          }
          break;
        case env::ActionKind::kIdle:
          outcomes_[a] = env::Outcome{env::ActionKind::kIdle, location_[a],
                                      0.0, 0, false, false};
          ++stats_.idles;
          break;
      }
    }

    // Phase 2: the centralized pairing process (Algorithm 1 by default)
    // over the packed flags. The ctx keys counter-based models on
    // (pairing seed, executing round); sequential models read only the
    // rng.
    pairing_->pair_active(flags,
                          env::PairingCtx{rng_, pairing_seed_, round_ + 1},
                          pairing_scratch_);
    HH_ENSURES(pairing_scratch_.recruited_by.size() == requests_.size());
    HH_ENSURES(pairing_scratch_.recruit_succeeded.size() == requests_.size());

    // Phase 3: end-of-round counts c(i, r).
    count_.assign(k + 1, 0);
    for (env::AntId a = 0; a < cfg_.num_ants; ++a) ++count_[location_[a]];

    // Phase 4: deliver return values and update knowledge. Phase 1 made
    // the requests in ant order, so the recruit ants' rows are met in
    // order: `idx` is the next one's position.
    std::uint32_t idx = 0;
    for (env::AntId a = 0; a < cfg_.num_ants; ++a) {
      env::Outcome& out = outcomes_[a];
      switch (out.kind) {
        case env::ActionKind::kSearch: {
          // (Knowledge of the found nest was granted in phase 1.)
          const double q = quality(out.nest);
          out.quality =
              observe_exact_ ? q : observation_.perceive_quality(q, rng_);
          out.count = observe_exact_ ? count_[out.nest]
                                     : observation_.perceive_count(
                                           count_[out.nest], rng_);
          break;
        }
        case env::ActionKind::kGo: {
          out.count = observe_exact_ ? count_[out.nest]
                                     : observation_.perceive_count(
                                           count_[out.nest], rng_);
          const double q = quality(out.nest);
          out.quality =
              observe_exact_ ? q : observation_.perceive_quality(q, rng_);
          break;
        }
        case env::ActionKind::kRecruit: {
          const std::int32_t recruiter = pairing_scratch_.recruited_by[idx];
          if (recruiter != env::kNotRecruited) {
            // Return value j is the recruiter's advertised nest (Algorithm
            // 1 lines 8-10); the ant learns that nest's location.
            out.nest = requests_[static_cast<std::size_t>(recruiter)].target;
            out.recruited = true;
            ++stats_.successful_recruitments;
            if (requests_[static_cast<std::size_t>(recruiter)].ant == a) {
              ++stats_.self_recruitments;
            }
            // requests_[idx].target is the ant's own advertised nest.
            if (out.nest != requests_[idx].target) {
              ++stats_.cross_nest_recruitments;
            }
            if (out.nest != env::kHomeNest) grant_knowledge(a, out.nest);
          }
          out.recruit_succeeded = pairing_scratch_.recruit_succeeded[idx] != 0;
          out.count = observe_exact_ ? count_[env::kHomeNest]
                                     : observation_.perceive_count(
                                           count_[env::kHomeNest], rng_);
          ++idx;
          break;
        }
        case env::ActionKind::kIdle:
          break;
      }
    }

    ++round_;
    return outcomes_;
  }

  [[nodiscard]] std::uint32_t num_ants() const { return cfg_.num_ants; }
  [[nodiscard]] std::uint32_t num_nests() const {
    return static_cast<std::uint32_t>(cfg_.qualities.size());
  }
  [[nodiscard]] std::uint32_t round() const { return round_; }
  [[nodiscard]] env::NestId location(env::AntId a) const {
    return location_[a];
  }
  [[nodiscard]] std::uint32_t count(env::NestId i) const { return count_[i]; }
  [[nodiscard]] double quality(env::NestId i) const {
    HH_EXPECTS(i >= 1 && i <= num_nests());
    return cfg_.qualities[i - 1];
  }
  [[nodiscard]] bool knows(env::AntId a, env::NestId i) const {
    return knowledge_[static_cast<std::size_t>(a) * (num_nests() + 1) + i] !=
           0;
  }
  [[nodiscard]] const env::RoundStats& last_round_stats() const {
    return stats_;
  }
  /// The AntId that recruited `a` in the last round, or kNotRecruited.
  [[nodiscard]] std::int32_t recruited_by_ant(env::AntId a) const {
    const std::size_t idx = request_of(a);
    if (idx == requests_.size()) return env::kNotRecruited;
    const std::int32_t recruiter = pairing_scratch_.recruited_by[idx];
    if (recruiter == env::kNotRecruited) return env::kNotRecruited;
    return static_cast<std::int32_t>(
        requests_[static_cast<std::size_t>(recruiter)].ant);
  }
  /// Whether `a` recruited someone in the last round.
  [[nodiscard]] bool recruit_succeeded_ant(env::AntId a) const {
    const std::size_t idx = request_of(a);
    return idx != requests_.size() &&
           pairing_scratch_.recruit_succeeded[idx] != 0;
  }

 private:
  // The backend's domain-separation tag for the pairing-stream key.
  static constexpr std::uint64_t kPairingSeedTag = 0x9A1217;

  /// The position of a's request row, or requests_.size() if a made no
  /// recruit() call last round.
  [[nodiscard]] std::size_t request_of(env::AntId a) const {
    const auto row = std::find_if(
        requests_.begin(), requests_.end(),
        [a](const env::RecruitRequest& r) { return r.ant == a; });
    return static_cast<std::size_t>(row - requests_.begin());
  }

  void grant_knowledge(env::AntId a, env::NestId i) {
    knowledge_[static_cast<std::size_t>(a) * (num_nests() + 1) + i] = 1;
  }

  void validate(env::AntId a, const env::Action& action) const {
    const auto fail = [&](const std::string& why) {
      throw ModelViolation("ant " + std::to_string(a) + ", round " +
                           std::to_string(round_ + 1) + ": " + why);
    };
    switch (action.kind) {
      case env::ActionKind::kSearch:
        break;  // always legal
      case env::ActionKind::kGo:
        if (action.target < 1 || action.target > num_nests()) {
          fail("go() target " + std::to_string(action.target) +
               " is not a candidate nest");
        }
        // Knowledge interpretation of the paper's precondition: the ant
        // must have visited the nest or been recruited to it.
        if (!knows(a, action.target)) {
          fail("go(" + std::to_string(action.target) + ") without knowledge");
        }
        break;
      case env::ActionKind::kRecruit:
        if (action.active) {
          // recruit(1, i): the advertised nest must be a known candidate.
          if (action.target < 1 || action.target > num_nests()) {
            fail("recruit(1, " + std::to_string(action.target) +
                 ") must advertise a candidate nest");
          }
          if (!knows(a, action.target)) {
            fail("recruit(1, " + std::to_string(action.target) +
                 ") without knowledge");
          }
        } else {
          // recruit(0, i): i may be the home nest (an ant that knows no
          // candidate waits to be recruited) or a known candidate.
          if (action.target > num_nests()) {
            fail("recruit(0, " + std::to_string(action.target) +
                 ") target out of range");
          }
          if (action.target != env::kHomeNest && !knows(a, action.target)) {
            fail("recruit(0, " + std::to_string(action.target) +
                 ") without knowledge");
          }
        }
        break;
      case env::ActionKind::kIdle:
        if (!cfg_.allow_idle) {
          fail("idle is not part of the model (enable allow_idle for the "
               "fault/asynchrony extensions)");
        }
        break;
    }
  }

  env::EnvironmentConfig cfg_;
  std::unique_ptr<env::PairingModel> pairing_;
  env::Observation observation_;
  bool observe_exact_;
  util::Rng rng_;
  std::uint64_t pairing_seed_;
  std::uint32_t round_ = 0;
  std::vector<env::NestId> location_;
  std::vector<std::uint32_t> count_;
  std::vector<std::uint8_t> knowledge_;
  std::vector<env::Outcome> outcomes_;
  std::vector<env::RecruitRequest> requests_;
  env::PairingScratch pairing_scratch_;
  env::RoundStats stats_;
};

}  // namespace hh::test

#endif  // HH_TESTS_REFERENCE_ROUND_HPP
