#include "env/backend.hpp"

#include "util/contracts.hpp"

namespace hh::env {

Backend::~Backend() = default;

const char* backend_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kHomeNest:
      return "home-nest";
    case BackendKind::kLattice:
      return "lattice";
  }
  HH_ASSERT(false && "unhandled BackendKind");
  return "?";
}

std::optional<BackendKind> backend_from_name(std::string_view name) {
  if (name == "home-nest") return BackendKind::kHomeNest;
  if (name == "lattice") return BackendKind::kLattice;
  return std::nullopt;
}

void Backend::step_masked_recruit_quiet(std::span<const MaskedOp>,
                                        std::span<const std::uint8_t>,
                                        std::span<const NestId>) {
  throw ContractViolation(
      "step_masked_recruit_quiet: this backend has no recruitment process");
}

}  // namespace hh::env
