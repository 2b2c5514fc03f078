#include "src/base/failpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <utility>

#include "src/base/annotations.h"
#include "src/base/deterministic.h"
#include "src/base/mutex.h"

namespace crsat {

namespace {

// The static catalog. Sorted; every CRSAT_FAILPOINT site in src/ names
// one of these (srclint failpoint-hygiene cross-checks the literals).
// Grouped by the degradation-ladder rung the fault exercises:
//
//   alloc/*       simulated std::bad_alloc at a subsystem boundary,
//                 converted to kResourceExhausted instead of a crash
//   guard/trip    spurious ResourceGuard trip mid-batch (kInjected)
//   incremental/* force the incremental -> cold rung
//   lp/*          warm-start rejection, fast-tier overflow,
//                 support-cover LP failure
//   saturation/*  graph-saturation seams: template expansion aborts
//                 (phase A -> UNKNOWN) and finite-materialization aborts
//                 (phase B degrades finite-model to sat-with-reuse)
//   server/*      crsatd serving seams: transient accept failure
//                 (connection stays in the backlog and is retried),
//                 short socket reads (frame reassembly re-loops), and
//                 forced admission-control sheds (kOverloaded response)
//   witness/*     aligned fast path -> flow refinement, rescale retry
constexpr const char* kRegisteredFailpoints[] = {
    "alloc/expansion",
    "alloc/simplex",
    "guard/trip",
    "incremental/force_cold",
    "lp/fast_tier_overflow",
    "lp/support_cover_fail",
    "lp/warm_start_reject",
    "saturation/expand",
    "saturation/materialize",
    "server/accept",
    "server/queue-full",
    "server/short-read",
    "witness/force_flow_refine",
    "witness/force_rescale",
};

// One armed failpoint's schedule position.
struct ActiveEntry {
  FailpointSpec spec;
  std::uint64_t hits_this_activation = 0;
  std::unique_ptr<DeterministicRng> rng;  // kProbability only.
};

struct Registry {
  Mutex mu;
  std::map<std::string, ActiveEntry> active CRSAT_GUARDED_BY(mu);
  std::map<std::string, FailpointCounters> counters CRSAT_GUARDED_BY(mu);
};

Registry& GetRegistry() {
  static Registry* registry = new Registry;
  return *registry;
}

Status ValidateSpec(const FailpointSpec& spec) {
  if (!IsFailpointRegistered(spec.id)) {
    return InvalidArgumentError("unregistered failpoint id '" + spec.id +
                                "' (see RegisteredFailpoints() in "
                                "src/base/failpoint.cc)");
  }
  switch (spec.mode) {
    case FailpointMode::kNth:
    case FailpointMode::kEveryK:
      if (spec.n == 0) {
        return InvalidArgumentError("failpoint '" + spec.id +
                                    "': hit index/period must be >= 1");
      }
      break;
    case FailpointMode::kProbability:
      if (!(spec.probability >= 0.0 && spec.probability <= 1.0)) {
        return InvalidArgumentError("failpoint '" + spec.id +
                                    "': probability must be in [0, 1]");
      }
      break;
  }
  return OkStatus();
}

// Parses one `id[=schedule]` entry from the environment grammar.
Status ParseOneSpec(std::string_view entry, FailpointSpec* out) {
  const size_t eq = entry.find('=');
  out->id = std::string(entry.substr(0, eq));
  if (eq == std::string_view::npos) {
    out->mode = FailpointMode::kNth;  // Bare id: fire on the first hit.
    out->n = 1;
    return OkStatus();
  }
  const std::string_view schedule = entry.substr(eq + 1);
  auto parse_u64 = [](std::string_view text, std::uint64_t* value) {
    if (text.empty()) {
      return false;
    }
    std::uint64_t parsed = 0;
    for (char c : text) {
      if (c < '0' || c > '9') {
        return false;
      }
      parsed = parsed * 10 + static_cast<std::uint64_t>(c - '0');
    }
    *value = parsed;
    return true;
  };
  if (schedule.rfind("nth:", 0) == 0 || schedule.rfind("every:", 0) == 0) {
    const bool nth = schedule[0] == 'n';
    out->mode = nth ? FailpointMode::kNth : FailpointMode::kEveryK;
    if (!parse_u64(schedule.substr(nth ? 4 : 6), &out->n)) {
      return InvalidArgumentError("failpoint '" + out->id +
                                  "': malformed count in schedule '" +
                                  std::string(schedule) + "'");
    }
    return OkStatus();
  }
  if (schedule.rfind("p:", 0) == 0) {
    out->mode = FailpointMode::kProbability;
    std::string_view rest = schedule.substr(2);
    const size_t at = rest.find('@');
    std::string_view prob_text = rest.substr(0, at);
    char* end = nullptr;
    std::string prob_copy(prob_text);
    out->probability = std::strtod(prob_copy.c_str(), &end);
    if (end == prob_copy.c_str() || *end != '\0') {
      return InvalidArgumentError("failpoint '" + out->id +
                                  "': malformed probability '" +
                                  prob_copy + "'");
    }
    out->seed = 0;
    if (at != std::string_view::npos) {
      std::uint64_t seed = 0;
      if (!parse_u64(rest.substr(at + 1), &seed)) {
        return InvalidArgumentError("failpoint '" + out->id +
                                    "': malformed seed in schedule '" +
                                    std::string(schedule) + "'");
      }
      out->seed = static_cast<std::uint32_t>(seed);
    }
    return OkStatus();
  }
  return InvalidArgumentError(
      "failpoint '" + out->id + "': unknown schedule '" +
      std::string(schedule) +
      "' (expected nth:N, every:K, or p:P@SEED)");
}

// Reads CRSAT_FAILPOINTS once at process start, before main. A parse
// error is reported on stderr rather than aborting: fault injection is
// test machinery and must never take production down by itself.
struct EnvActivator {
  EnvActivator() {
    const char* value = std::getenv("CRSAT_FAILPOINTS");
    if (value == nullptr || value[0] == '\0') {
      return;
    }
    const Status status = ActivateFailpointsFromSpec(value);
    if (!status.ok()) {
      std::fprintf(stderr, "crsat: CRSAT_FAILPOINTS: %s\n",
                   status.ToString().c_str());
    }
  }
};
const EnvActivator g_env_activator;

}  // namespace

namespace failpoint_internal {

std::atomic<int> g_any_active{0};

bool ShouldFireSlow(const char* id) {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  auto it = registry.active.find(id);
  if (it == registry.active.end()) {
    return false;  // Some other failpoint is armed, not this one.
  }
  ActiveEntry& entry = it->second;
  ++entry.hits_this_activation;
  ++registry.counters[id].hits;
  bool fire = false;
  switch (entry.spec.mode) {
    case FailpointMode::kNth:
      fire = entry.hits_this_activation == entry.spec.n;
      break;
    case FailpointMode::kEveryK:
      fire = entry.hits_this_activation % entry.spec.n == 0;
      break;
    case FailpointMode::kProbability:
      fire = entry.rng->Coin(entry.spec.probability);
      break;
  }
  if (fire) {
    ++registry.counters[id].fires;
  }
  return fire;
}

}  // namespace failpoint_internal

const std::vector<std::string>& RegisteredFailpoints() {
  static const std::vector<std::string>* ids = [] {
    auto* list = new std::vector<std::string>(
        std::begin(kRegisteredFailpoints), std::end(kRegisteredFailpoints));
    return list;
  }();
  return *ids;
}

bool IsFailpointRegistered(std::string_view id) {
  const std::vector<std::string>& ids = RegisteredFailpoints();
  return std::binary_search(ids.begin(), ids.end(), id);
}

Status ActivateFailpoint(const FailpointSpec& spec) {
  CRSAT_RETURN_IF_ERROR(ValidateSpec(spec));
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  ActiveEntry& entry = registry.active[spec.id];
  entry.spec = spec;
  entry.hits_this_activation = 0;
  entry.rng = spec.mode == FailpointMode::kProbability
                  ? std::make_unique<DeterministicRng>(spec.seed)
                  : nullptr;
  failpoint_internal::g_any_active.store(
      static_cast<int>(registry.active.size()), std::memory_order_relaxed);
  return OkStatus();
}

Status DeactivateFailpoint(std::string_view id) {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  registry.active.erase(std::string(id));
  failpoint_internal::g_any_active.store(
      static_cast<int>(registry.active.size()), std::memory_order_relaxed);
  return OkStatus();
}

void DeactivateAllFailpoints() {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  registry.active.clear();
  failpoint_internal::g_any_active.store(0, std::memory_order_relaxed);
}

Status ActivateFailpointsFromSpec(std::string_view spec_text) {
  size_t pos = 0;
  while (pos <= spec_text.size()) {
    size_t end = spec_text.find_first_of(",;", pos);
    if (end == std::string_view::npos) {
      end = spec_text.size();
    }
    std::string_view entry = spec_text.substr(pos, end - pos);
    // Trim surrounding spaces.
    while (!entry.empty() && entry.front() == ' ') {
      entry.remove_prefix(1);
    }
    while (!entry.empty() && entry.back() == ' ') {
      entry.remove_suffix(1);
    }
    if (!entry.empty()) {
      FailpointSpec spec;
      CRSAT_RETURN_IF_ERROR(ParseOneSpec(entry, &spec));
      CRSAT_RETURN_IF_ERROR(ActivateFailpoint(spec));
    }
    if (end == spec_text.size()) {
      break;
    }
    pos = end + 1;
  }
  return OkStatus();
}

FailpointCounters GetFailpointCounters(std::string_view id) {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  auto it = registry.counters.find(std::string(id));
  return it == registry.counters.end() ? FailpointCounters{} : it->second;
}

void ResetFailpointCounters() {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  registry.counters.clear();
}

ScopedFailpoint::ScopedFailpoint(FailpointSpec spec) : id_(spec.id) {
  status_ = ActivateFailpoint(spec);
}

ScopedFailpoint::ScopedFailpoint(std::string id, std::uint64_t nth)
    : id_(std::move(id)) {
  FailpointSpec spec;
  spec.id = id_;
  spec.mode = FailpointMode::kNth;
  spec.n = nth;
  status_ = ActivateFailpoint(spec);
}

ScopedFailpoint::~ScopedFailpoint() {
  if (status_.ok()) {
    const Status deactivated = DeactivateFailpoint(id_);
    (void)deactivated;  // Deactivation of an armed id cannot fail.
  }
}

}  // namespace crsat
