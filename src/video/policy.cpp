#include "video/policy.h"

#include <charconv>
#include <stdexcept>
#include <utility>

#include "util/string_registry.h"

namespace xp::video {

namespace {

constexpr std::string_view kCapPrefix = "cap/";
constexpr std::string_view kDropTopPrefix = "drop_top/";

void install_builtins(std::map<std::string, TreatmentPolicy>& reg) {
  TreatmentPolicy control;
  control.name = "control";
  reg.emplace(control.name, control);

  TreatmentPolicy bba;
  bba.name = "bba";
  bba.abr = AbrKind::kBufferBased;
  reg.emplace(bba.name, bba);

  TreatmentPolicy rate;
  rate.name = "rate";
  rate.abr = AbrKind::kRate;
  reg.emplace(rate.name, rate);
}

util::StringRegistry<TreatmentPolicy>& registry() {
  static util::StringRegistry<TreatmentPolicy> instance(
      "policy", install_builtins,
      {"cap/<fraction>", "drop_top/<rungs>"});
  return instance;
}

double parse_double(std::string_view name, std::string_view digits) {
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (ec != std::errc{} || end != digits.data() + digits.size()) {
    throw std::invalid_argument("make_policy: \"" + std::string(name) +
                                "\": cap fraction \"" + std::string(digits) +
                                "\" is not a number");
  }
  return value;
}

TreatmentPolicy cap_policy(std::string_view name, std::string_view digits) {
  const double fraction = parse_double(name, digits);
  if (!(fraction > 0.0) || fraction > 1.0) {
    throw std::invalid_argument("make_policy: \"" + std::string(name) +
                                "\": cap fraction must be in (0, 1]");
  }
  TreatmentPolicy policy;
  policy.name = std::string(name);
  policy.ladder.kind = LadderPolicy::Kind::kCapFraction;
  policy.ladder.cap_fraction = fraction;
  return policy;
}

TreatmentPolicy drop_top_policy(std::string_view name,
                                std::string_view digits) {
  std::size_t rungs = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), rungs);
  if (ec != std::errc{} || end != digits.data() + digits.size() ||
      rungs == 0) {
    throw std::invalid_argument("make_policy: \"" + std::string(name) +
                                "\": drop_top rung count must be a "
                                "positive integer");
  }
  TreatmentPolicy policy;
  policy.name = std::string(name);
  policy.ladder.kind = LadderPolicy::Kind::kDropTop;
  policy.ladder.drop_rungs = rungs;
  return policy;
}

}  // namespace

BitrateLadder LadderPolicy::apply(const BitrateLadder& base,
                                  double device_ceiling) const {
  switch (kind) {
    case Kind::kIdentity:
      return base.capped(device_ceiling);
    case Kind::kCapFraction:
      // One capped() call from the base ladder, not a chain: exactly the
      // pre-policy cluster arithmetic, so default worlds stay bit-identical.
      return base.capped(device_ceiling * cap_fraction);
    case Kind::kDropTop:
      return base.capped(device_ceiling).without_top(drop_rungs);
  }
  return base.capped(device_ceiling);
}

AbrPolicy TreatmentPolicy::abr_policy(const AbrConfig& cluster_abr) const {
  AbrPolicy policy;
  policy.kind = abr;
  policy.config = cluster_abr;
  policy.rate_safety = rate_safety;
  policy.rate_tau_seconds = rate_tau_seconds;
  return policy;
}

TreatmentPolicy make_policy(std::string_view name) {
  if (name.substr(0, kCapPrefix.size()) == kCapPrefix) {
    return cap_policy(name, name.substr(kCapPrefix.size()));
  }
  if (name.substr(0, kDropTopPrefix.size()) == kDropTopPrefix) {
    return drop_top_policy(name, name.substr(kDropTopPrefix.size()));
  }
  return registry().find(name);
}

void register_policy(TreatmentPolicy policy) {
  std::string name = policy.name;
  if (name.empty()) {
    throw std::invalid_argument("register_policy: policy has no name");
  }
  if (name.substr(0, kCapPrefix.size()) == kCapPrefix ||
      name.substr(0, kDropTopPrefix.size()) == kDropTopPrefix) {
    throw std::invalid_argument(
        "register_policy: \"" + name +
        "\" collides with a parameterized policy family");
  }
  registry().add(std::move(name), std::move(policy));
}

std::vector<std::string> policy_names() { return registry().names(); }

}  // namespace xp::video
