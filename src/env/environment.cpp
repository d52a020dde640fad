#include "env/environment.hpp"

#include <algorithm>
#include <string>

#include "util/contracts.hpp"

namespace hh::env {

namespace {
// Domain-separation tag for the pairing-stream key: keeps the counter
// streams independent of every draw the shared rng_ makes from the same
// config seed. Mirrors the engine-layer seed tags in core/simulation.cpp.
constexpr std::uint64_t kPairingSeedTag = 0x9A1217;

/// The masked op of an Action's call.
MaskedOp op_of(ActionKind kind) {
  switch (kind) {
    case ActionKind::kSearch: return MaskedOp::kSearch;
    case ActionKind::kGo: return MaskedOp::kGo;
    case ActionKind::kRecruit: return MaskedOp::kRecruit;
    case ActionKind::kIdle: return MaskedOp::kIdle;
  }
  return MaskedOp::kIdle;
}
}  // namespace

HomeNestBackend::HomeNestBackend(EnvironmentConfig cfg,
                                 std::unique_ptr<PairingModel> pairing,
                                 const NoiseConfig& noise, WorldLanes lanes)
    : cfg_(std::move(cfg)),
      lanes_(lanes),
      pairing_(pairing ? std::move(pairing)
                       : std::make_unique<PermutationPairing>()),
      observation_(noise),
      rng_(cfg_.seed),
      pairing_seed_(util::mix_seed(cfg_.seed, kPairingSeedTag)) {
  HH_EXPECTS(cfg_.num_ants >= 1);
  HH_EXPECTS(!cfg_.qualities.empty());
  for (double q : cfg_.qualities) HH_EXPECTS(q >= 0.0 && q <= 1.0);
  // Validation reads the knowledge table, which only a full world keeps.
  HH_EXPECTS(full_lanes() || !cfg_.enforce_model);

  location_.assign(cfg_.num_ants, kHomeNest);  // all ants start at home
  count_.assign(num_nests() + 1, 0);
  count_[kHomeNest] = cfg_.num_ants;
  if (full_lanes()) {
    knowledge_.assign(
        static_cast<std::size_t>(cfg_.num_ants) * (num_nests() + 1), 0);
    outcomes_.resize(cfg_.num_ants);
    call_op_.resize(cfg_.num_ants);
    call_active_.resize(cfg_.num_ants);
    call_target_.resize(cfg_.num_ants);
  }
  // Every per-round buffer is sized for the worst case up front so that
  // step() never allocates (see the invariant in the header).
  requests_.reserve(cfg_.num_ants);
  pairing_->reserve(pairing_scratch_, cfg_.num_ants);
  success_ants_.reserve(cfg_.num_ants);
  recruit_result_.assign(cfg_.num_ants, kHomeNest);
  if (!observation_.exact()) {
    perceived_count_.assign(cfg_.num_ants, 0);
    perceived_quality_.assign(cfg_.num_ants, 0.0);
  }
}

void HomeNestBackend::reset(std::uint64_t seed) {
  // Mirror of the constructor's initial state, minus the allocations: the
  // equivalence tests (tests/test_resume.cpp) pin reset-and-rerun to a
  // fresh construction bit for bit.
  cfg_.seed = seed;
  rng_.reseed(seed);
  pairing_seed_ = util::mix_seed(seed, kPairingSeedTag);
  round_ = 0;
  std::fill(location_.begin(), location_.end(), kHomeNest);
  std::fill(count_.begin(), count_.end(), 0u);
  count_[kHomeNest] = cfg_.num_ants;
  std::fill(knowledge_.begin(), knowledge_.end(), std::uint8_t{0});
  requests_.clear();
  success_ants_.clear();
  std::fill(recruit_result_.begin(), recruit_result_.end(), kHomeNest);
  std::fill(perceived_count_.begin(), perceived_count_.end(), 0u);
  std::fill(perceived_quality_.begin(), perceived_quality_.end(), 0.0);
  stats_ = RoundStats{};
}

NestId HomeNestBackend::location(AntId a) const {
  HH_EXPECTS(a < cfg_.num_ants);
  return location_[a];
}

std::uint32_t HomeNestBackend::count(NestId i) const {
  HH_EXPECTS(i <= num_nests());
  return count_[i];
}

double HomeNestBackend::quality(NestId i) const {
  HH_EXPECTS(i >= 1 && i <= num_nests());
  return cfg_.qualities[i - 1];
}

bool HomeNestBackend::knows(AntId a, NestId i) const {
  HH_EXPECTS(full_lanes());
  HH_EXPECTS(a < cfg_.num_ants);
  HH_EXPECTS(i <= num_nests());
  return knowledge_[static_cast<std::size_t>(a) * (num_nests() + 1) + i] != 0;
}

std::uint32_t HomeNestBackend::request_of(AntId a) const {
  const auto row = std::lower_bound(
      requests_.begin(), requests_.end(), a,
      [](const RecruitRequest& r, AntId ant) { return r.ant < ant; });
  if (row == requests_.end() || row->ant != a) return kNoRequest;
  return static_cast<std::uint32_t>(row - requests_.begin());
}

std::int32_t HomeNestBackend::recruited_by_ant(AntId a) const {
  HH_EXPECTS(a < cfg_.num_ants);
  const std::uint32_t idx = request_of(a);
  if (idx == kNoRequest) return kNotRecruited;
  const std::int32_t recruiter = pairing_scratch_.recruited_by[idx];
  if (recruiter == kNotRecruited) return kNotRecruited;
  return static_cast<std::int32_t>(
      requests_[static_cast<std::size_t>(recruiter)].ant);
}

bool HomeNestBackend::recruit_succeeded_ant(AntId a) const {
  HH_EXPECTS(a < cfg_.num_ants);
  const std::uint32_t idx = request_of(a);
  return idx != kNoRequest && pairing_scratch_.recruit_succeeded[idx] != 0;
}

void HomeNestBackend::grant_knowledge(AntId a, NestId i) {
  knowledge_[static_cast<std::size_t>(a) * (num_nests() + 1) + i] = 1;
}

void HomeNestBackend::validate(AntId a, const Action& action) const {
  const auto fail = [&](const std::string& why) {
    throw ModelViolation("ant " + std::to_string(a) + ", round " +
                         std::to_string(round_ + 1) + ": " + why);
  };
  switch (action.kind) {
    case ActionKind::kSearch:
      break;  // always legal
    case ActionKind::kGo:
      if (action.target < 1 || action.target > num_nests()) {
        fail("go() target " + std::to_string(action.target) +
             " is not a candidate nest");
      }
      // Knowledge interpretation of the paper's precondition (DESIGN.md §2):
      // the ant must have visited the nest or been recruited to it.
      if (!knows(a, action.target)) {
        fail("go(" + std::to_string(action.target) + ") without knowledge");
      }
      break;
    case ActionKind::kRecruit:
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
        if (action.target != kHomeNest && !knows(a, action.target)) {
          fail("recruit(0, " + std::to_string(action.target) +
               ") without knowledge");
        }
      }
      break;
    case ActionKind::kIdle:
      if (!cfg_.allow_idle) {
        fail("idle is not part of the model (enable allow_idle for the "
             "fault/asynchrony extensions)");
      }
      break;
  }
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void HomeNestBackend::record_matching() {
  // The first pass already stored every recruit ant's own target in
  // recruit_result_ (the return value when nobody recruits it), so only
  // the matched pairs are left to visit. First a branch-free compaction
  // gathers the recruited request positions x in ascending order — the
  // irregular matched/unmatched pattern would mispredict a branch about
  // every other slot — using success_ants_ as the arena; then one walk
  // over just those pairs replaces each position with its recruiter's
  // AntId (so the list keeps request order), delivers the recruited ant's
  // return value j, grants the tandem-run knowledge, and counts the pairs.
  const std::size_t m = requests_.size();
  const std::int32_t* const recruited_by = pairing_scratch_.recruited_by.data();
  success_ants_.resize(m);  // lint: capacity-reserved
  AntId* const pairs = success_ants_.data();
  std::size_t n_pairs = 0;
  for (std::size_t x = 0; x < m; ++x) {
    pairs[n_pairs] = static_cast<AntId>(x);
    n_pairs += recruited_by[x] != kNotRecruited ? 1u : 0u;
  }
  success_ants_.resize(n_pairs);  // lint: capacity-reserved
  // Raw lane pointers: the knowledge byte store may alias anything, so
  // member loads would be repeated every pair. A kMasked world keeps no
  // knowledge table and skips that store.
  const bool knowing = full_lanes();
  const RecruitRequest* const requests = requests_.data();
  NestId* const results = recruit_result_.data();
  std::uint32_t self = 0;
  std::uint32_t cross = 0;
  for (std::size_t i = 0; i < n_pairs; ++i) {
    const RecruitRequest& to = requests[pairs[i]];
    const RecruitRequest& from =
        requests[static_cast<std::size_t>(recruited_by[pairs[i]])];
    pairs[i] = from.ant;
    results[to.ant] = from.target;
    self += from.ant == to.ant ? 1u : 0u;
    cross += from.target != to.target ? 1u : 0u;
    if (knowing && from.target != kHomeNest) {
      grant_knowledge(to.ant, from.target);
    }
  }
  stats_.successful_recruitments = static_cast<std::uint32_t>(n_pairs);
  stats_.self_recruitments = self;
  stats_.cross_nest_recruitments = cross;
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
const std::vector<Outcome>& HomeNestBackend::step(std::span<const Action> actions) {
  HH_EXPECTS(full_lanes());
  HH_EXPECTS(actions.size() == cfg_.num_ants);
  const AntId n = cfg_.num_ants;
  for (AntId a = 0; a < n; ++a) {
    const Action& action = actions[a];
    call_op_[a] = op_of(action.kind);
    call_active_[a] = action.active ? 1 : 0;
    call_target_[a] = action.target;
  }
  quiet_round(call_op_, call_active_, call_target_);

  // The return values, in ant order: a searcher or a go-er reports the
  // nest it stands in, a recruit its return value j, an idle ant where it
  // stays. The recruit ants' request rows are met in order (the round
  // packs them in ant order), so `idx` is the next one's position.
  const bool exact = observation_.exact();
  const std::int32_t* const recruited_by = pairing_scratch_.recruited_by.data();
  const std::uint8_t* const succeeded =
      pairing_scratch_.recruit_succeeded.data();
  std::uint32_t idx = 0;
  for (AntId a = 0; a < n; ++a) {
    const NestId at = location_[a];
    Outcome& out = outcomes_[a];
    switch (call_op_[a]) {
      case MaskedOp::kSearch:
      case MaskedOp::kGo:
        // Extension beyond the paper's go() signature: a visiting ant can
        // re-assess the nest it is standing in. The paper's algorithms
        // ignore this field; the Section 6 quality-aware variant uses it.
        out = Outcome{actions[a].kind, at,
                      exact ? quality(at) : perceived_quality_[a],
                      exact ? count_[at] : perceived_count_[a], false, false};
        break;
      case MaskedOp::kRecruit:
        out = Outcome{ActionKind::kRecruit, recruit_result_[a], 0.0,
                      exact ? count_[kHomeNest] : perceived_count_[a],
                      recruited_by[idx] != kNotRecruited, succeeded[idx] != 0};
        ++idx;
        break;
      case MaskedOp::kIdle:
        out = Outcome{ActionKind::kIdle, at, 0.0, 0, false, false};
        break;
    }
  }
  return outcomes_;
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void HomeNestBackend::quiet_round(std::span<const MaskedOp> op,
                                  std::span<const std::uint8_t> active,
                                  std::span<const NestId> targets) {
  const std::uint32_t k = num_nests();
  const AntId n = cfg_.num_ants;
  const bool validating = cfg_.enforce_model;
  const bool knowing = full_lanes();
  // A recruit-free round passes no active lane and packs no requests.
  const bool recruits = !active.empty();
  stats_ = RoundStats{};

  // Pass 1 — validation (when enforced), classification, location
  // updates, search draws, request packing (AoS row + the dense
  // active-flag lane the pairing reads), AND the count scatter, one
  // ant-order sweep. An illegal call throws before its ant is applied,
  // after the ants before it were. A separate census would read location_
  // back; here each ant's end-of-round location is still in register. Go
  // and recruit ants — the whole colony after round 1 — take the two hot
  // arms. (A select form that gives go ants the recruit arm's stores too,
  // so the arm choice needs no branch, compiles to the same branch with
  // GCC 12 and only adds stores.) Searches and idles — round 1, fault and
  // sleep lanes — take the cold arms.
  count_.assign(k + 1, 0);
  auto& flags = pairing_scratch_.active;
  if (recruits) {
    requests_.resize(n);  // lint: capacity-reserved
    flags.resize(n);  // lint: capacity-reserved
  }
  // Raw lane pointers: the byte stores below (flags, knowledge) may alias
  // anything, the vectors' own data pointers included, so indexing the
  // member vectors would reload every pointer for every ant.
  const MaskedOp* const ops = op.data();
  const std::uint8_t* const b_lane = active.data();
  const NestId* const tgts = targets.data();
  NestId* const loc = location_.data();
  std::uint32_t* const cnt = count_.data();
  NestId* const results = recruit_result_.data();
  RecruitRequest* const req_rows = requests_.data();
  std::uint8_t* const flag_rows = flags.data();
  std::uint32_t mreq = 0;
  for (AntId a = 0; a < n; ++a) {
    const MaskedOp o = ops[a];
    if (o == MaskedOp::kGo) {
      const NestId tgt = tgts[a];
      if (validating) validate(a, Action::go(tgt));
      loc[a] = tgt;
      ++cnt[tgt];
    } else if (o == MaskedOp::kRecruit) {
      HH_ASSERT(recruits);
      const NestId tgt = tgts[a];
      const bool b = b_lane[a] != 0;
      if (validating) validate(a, Action::recruit(b, tgt));
      loc[a] = kHomeNest;  // recruitment happens at the home nest
      // The return value unless the ant gets recruited; record_matching()
      // overwrites it for the ants that do.
      results[a] = tgt;
      req_rows[mreq] = RecruitRequest{a, b, tgt};
      flag_rows[mreq] = b ? 1 : 0;
      ++mreq;
    } else if (o == MaskedOp::kSearch) {
      // search(): i chosen uniformly at random from {1..k}, in ant order.
      const auto found = static_cast<NestId>(1 + rng_.uniform_u64(k));
      loc[a] = found;
      if (knowing) grant_knowledge(a, found);
      ++cnt[found];
      ++stats_.searches;
    } else {
      if (validating) validate(a, Action::idle());
      ++cnt[loc[a]];
      ++stats_.idles;
    }
  }
  // Every recruit ant is at home: one add instead of a serial increment
  // chain on the home-nest cell, one link per recruit ant.
  cnt[kHomeNest] += mreq;
  requests_.resize(mreq);  // lint: capacity-reserved
  flags.resize(mreq);  // lint: capacity-reserved
  // The per-kind tallies the loop above did not keep (fewer live values
  // there, so its lane pointers stay in registers).
  std::uint32_t n_rec_active = 0;
  for (const std::uint8_t b : flags) n_rec_active += b;
  stats_.gos = n - mreq - stats_.searches - stats_.idles;
  stats_.active_recruits = n_rec_active;
  stats_.passive_recruits = mreq - n_rec_active;

  // Pass 2 — the pairing over the packed flags (flags aliases
  // scratch.active), then the matched-pairs bookkeeping. A recruit-free
  // round pairs the empty set: no draws, an empty matching.
  pairing_->pair_active(flags, PairingCtx{rng_, pairing_seed_, round_ + 1},
                        pairing_scratch_);
  HH_ENSURES(pairing_scratch_.recruited_by.size() == requests_.size());
  record_matching();
  // Exact observation is the identity and draws nothing: its callers read
  // the counts and qualities themselves.
  if (!observation_.exact()) perceive(op);
  ++round_;
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void HomeNestBackend::perceive(std::span<const MaskedOp> op) {
  // The round's last shared-stream draws, in ant order: a searcher
  // perceives quality then count, a go-er count then quality, a recruit
  // the home nest's count. A searcher or a go-er stands in the nest its
  // call returns.
  const Observation& model = observation_;
  for (AntId a = 0; a < cfg_.num_ants; ++a) {
    const NestId at = location_[a];
    switch (op[a]) {
      case MaskedOp::kSearch:
        perceived_quality_[a] = model.perceive_quality(quality(at), rng_);
        perceived_count_[a] = model.perceive_count(count_[at], rng_);
        break;
      case MaskedOp::kGo:
        perceived_count_[a] = model.perceive_count(count_[at], rng_);
        perceived_quality_[a] = model.perceive_quality(quality(at), rng_);
        break;
      case MaskedOp::kRecruit:
        perceived_count_[a] = model.perceive_count(count_[kHomeNest], rng_);
        break;
      case MaskedOp::kIdle:
        break;
    }
  }
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void HomeNestBackend::step_masked_recruit_quiet(
    std::span<const MaskedOp> op, std::span<const std::uint8_t> active,
    std::span<const NestId> targets) {
  HH_EXPECTS(op.size() == cfg_.num_ants);
  HH_EXPECTS(active.size() == cfg_.num_ants);
  HH_EXPECTS(targets.size() == cfg_.num_ants);
  quiet_round(op, active, targets);
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void HomeNestBackend::step_masked_go_quiet(std::span<const MaskedOp> op,
                                           std::span<const NestId> targets) {
  HH_EXPECTS(op.size() == cfg_.num_ants);
  HH_EXPECTS(targets.size() == cfg_.num_ants);
  quiet_round(op, {}, targets);
}

}  // namespace hh::env
