#include "src/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>

#include "src/base/degradation.h"
#include "src/expansion/expansion.h"
#include "src/lp/simplex.h"
#include "src/reasoner/implication_engine.h"

namespace perfbench {

void RunResult::Mismatch(const std::string& what) {
  ++mismatches;
  // Keep the log readable when a whole corpus disagrees.
  if (mismatches <= 20) {
    std::cerr << "[crbench] MISMATCH: " << what << "\n";
  }
}

Counters Counters::Take() {
  const crsat::SimplexStats& lp = crsat::GetSimplexStats();
  const crsat::ImplicationStats& implication = crsat::GetImplicationStats();
  const crsat::ExpansionStats& expansion = crsat::GetExpansionStats();
  const crsat::RecoveryStats& recovery = crsat::GetRecoveryStats();
  Counters c;
  c.value[kSolves] = lp.solves.load();
  c.value[kPivots] = lp.pivots.load();
  c.value[kPhase1Pivots] = lp.phase1_pivots.load();
  c.value[kFastPivots] = lp.fast_pivots.load();
  c.value[kTierFallbacks] = lp.tier_fallbacks.load();
  c.value[kWarmStartHits] = lp.warm_start_hits.load();
  c.value[kWarmStartMisses] = lp.warm_start_misses.load();
  c.value[kDualPivots] = lp.dual_pivots.load();
  c.value[kIncrementalHits] = lp.incremental_hits.load();
  c.value[kDominanceLookups] = implication.dominance_lookups.load();
  c.value[kDominanceHits] = implication.dominance_hits.load();
  c.value[kPrunedSubtrees] = expansion.pruned_subtrees.load();
  c.value[kWarmStartFallbacks] = recovery.warm_start_fallbacks.load();
  c.value[kCoverFallbacks] = recovery.cover_fallbacks.load();
  c.value[kGuardTrips] = recovery.guard_trips.load();
  c.value[kBadAllocConversions] = recovery.bad_alloc_conversions.load();
  return c;
}

const char* Counters::Name(int index) {
  static const char* const kNames[kCount] = {
      "lp.solves",           "lp.pivots",
      "lp.phase1_pivots",    "lp.fast_pivots",
      "lp.tier_fallbacks",   "lp.warm_start_hits",
      "lp.warm_start_misses", "lp.dual_pivots",
      "lp.incremental_hits", "reasoner.dominance_lookups",
      "reasoner.dominance_hits", "expansion.pruned_subtrees",
      "base.warm_start_fallbacks", "base.cover_fallbacks",
      "base.guard_trips",    "base.bad_alloc_conversions",
  };
  return kNames[index];
}

Counters Counters::operator-(const Counters& other) const {
  Counters delta;
  for (int i = 0; i < kCount; ++i) {
    delta.value[i] = value[i] - other.value[i];
  }
  return delta;
}

Counters& Counters::operator+=(const Counters& other) {
  for (int i = 0; i < kCount; ++i) {
    value[i] += other.value[i];
  }
  return *this;
}

void AddEndToEnd(RunResult* result, const std::vector<double>& setups_s,
                 const std::vector<Slice>& slices, double tail_fraction,
                 double light_fraction, const std::string& tail_label) {
  std::vector<double> rate, p50, tail, light_tail;
  std::size_t ops = 0;
  for (const Slice& slice : slices) {
    rate.push_back(slice.latencies_ms.size() / slice.seconds);
    p50.push_back(Percentile(slice.latencies_ms, 0.50));
    tail.push_back(Percentile(slice.latencies_ms, tail_fraction));
    light_tail.push_back(Percentile(slice.light_ms, light_fraction));
    ops += slice.latencies_ms.size();
  }
  result->Add("setup_s", Median(setups_s), "s");
  result->Add("ops_per_s", Median(rate), "1/s");
  result->Add("latency_p50_ms", Median(p50), "ms");
  result->Add("latency_tail_ms", Median(tail), "ms");
  result->Add("light_tail_ms", Median(light_tail), "ms");
  result->Add("peak_rss_mb", PeakRssMb(), "MB");
  result->info.push_back({"latency_" + tail_label + "_ms", Median(tail), "ms"});
  if (light_fraction == tail_fraction) {
    result->info.push_back(
        {"light_" + tail_label + "_ms", Median(light_tail), "ms"});
  }
  result->info.push_back({"ops", static_cast<double>(ops), "count"});
  result->info.push_back(
      {"slices", static_cast<double>(slices.size()), "count"});
}

double Percentile(std::vector<double> values, double fraction) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1 || fraction >= 1) {
    return values.back();
  }
  // Harrell-Davis: a weighted mean of every order statistic, the weight
  // of the i-th being the mass Beta(p(n+1), (1-p)(n+1)) puts on
  // ((i-1)/n, i/n], here with the beta's normal approximation. Unlike
  // the nearest rank it does not jump when two ops of a steep latency
  // distribution swap places.
  const double sigma =
      std::sqrt(fraction * (1 - fraction) / static_cast<double>(n + 2));
  auto cdf = [&](double x) {
    return 0.5 * std::erfc(-(x - fraction) / (sigma * std::sqrt(2.0)));
  };
  double weighted = 0;
  double total = 0;
  double lower = cdf(0);
  for (std::size_t i = 1; i <= n; ++i) {
    const double upper = cdf(static_cast<double>(i) / static_cast<double>(n));
    weighted += (upper - lower) * values[i - 1];
    total += upper - lower;
    lower = upper;
  }
  return weighted / total;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::uint64_t Fnv1a(const std::string& text, std::uint64_t hash) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  *out = text.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

std::string RenderSchema(const crsat::Schema& schema, const std::string& name,
                         const std::vector<std::string>& class_names,
                         const std::vector<std::string>& rel_names,
                         const std::vector<std::string>& role_names) {
  auto cls = [&](crsat::ClassId id) { return class_names[id.value]; };
  std::string text = "schema " + name + " {\n";
  for (crsat::ClassId id : schema.AllClasses()) {
    text += "  class " + cls(id) + ";\n";
  }
  for (const crsat::IsaStatement& isa : schema.isa_statements()) {
    text += "  isa " + cls(isa.subclass) + " < " + cls(isa.superclass) + ";\n";
  }
  for (crsat::RelationshipId rel : schema.AllRelationships()) {
    text += "  relationship " + rel_names[rel.value] + "(";
    const std::vector<crsat::RoleId>& roles = schema.RolesOf(rel);
    for (std::size_t k = 0; k < roles.size(); ++k) {
      text += (k > 0 ? ", " : "") + role_names[roles[k].value] + ": " +
              cls(schema.PrimaryClass(roles[k]));
    }
    text += ");\n";
  }
  for (const crsat::CardinalityDeclaration& decl :
       schema.cardinality_declarations()) {
    text += "  card " + cls(decl.cls) + " in " + rel_names[decl.rel.value] +
            "." + role_names[decl.role.value] + " = (" +
            std::to_string(decl.cardinality.min) + ", " +
            (decl.cardinality.max.has_value()
                 ? std::to_string(*decl.cardinality.max)
                 : std::string("*")) +
            ");\n";
  }
  for (const crsat::DisjointnessConstraint& group :
       schema.disjointness_constraints()) {
    text += "  disjoint ";
    for (std::size_t i = 0; i < group.classes.size(); ++i) {
      text += (i > 0 ? ", " : "") + cls(group.classes[i]);
    }
    text += ";\n";
  }
  for (const crsat::CoveringConstraint& cover : schema.covering_constraints()) {
    text += "  cover " + cls(cover.covered) + " by ";
    for (std::size_t i = 0; i < cover.coverers.size(); ++i) {
      text += (i > 0 ? ", " : "") + cls(cover.coverers[i]);
    }
    text += ";\n";
  }
  return text + "}\n";
}

std::vector<std::string> SeededNames(std::mt19937_64& rng,
                                     const std::string& prefix, int count) {
  std::vector<std::string> names;
  while (static_cast<int>(names.size()) < count) {
    std::string name = prefix;
    name += static_cast<char>('a' + rng() % 26);
    name += static_cast<char>('a' + rng() % 26);
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      names.push_back(std::move(name));
    }
  }
  return names;
}

std::vector<int> SeededPermutation(std::mt19937_64& rng, int n) {
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) {
    order[i] = i;
  }
  // Fisher-Yates with a plain modulus: std::shuffle's draws are
  // implementation-defined, and the inputs must not depend on the
  // standard library.
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng() % static_cast<std::uint64_t>(i + 1)]);
  }
  return order;
}

}  // namespace perfbench
