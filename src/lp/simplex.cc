#include "src/lp/simplex.h"

#include <algorithm>
#include <chrono>
#include <new>
#include <utility>

#include "src/base/degradation.h"
#include "src/base/failpoint.h"
#include "src/base/resource_guard.h"
#include "src/lp/small_rational.h"

namespace crsat {

void SimplexStats::Reset() {
  solves.store(0, std::memory_order_relaxed);
  pivots.store(0, std::memory_order_relaxed);
  phase1_pivots.store(0, std::memory_order_relaxed);
  fast_solves.store(0, std::memory_order_relaxed);
  fast_pivots.store(0, std::memory_order_relaxed);
  tier_fallbacks.store(0, std::memory_order_relaxed);
  warm_start_hits.store(0, std::memory_order_relaxed);
  warm_start_misses.store(0, std::memory_order_relaxed);
  dual_pivots.store(0, std::memory_order_relaxed);
  incremental_hits.store(0, std::memory_order_relaxed);
  layout_ns.store(0, std::memory_order_relaxed);
  pivot_in_ns.store(0, std::memory_order_relaxed);
  phase1_ns.store(0, std::memory_order_relaxed);
  phase2_ns.store(0, std::memory_order_relaxed);
}

SimplexStats& GetSimplexStats() {
  static SimplexStats stats;
  return stats;
}

const WarmStartBasis* WarmStartBasisCache::Lookup(int num_variables,
                                                  int num_constraints) {
  for (size_t i = entries_.size(); i > 0; --i) {
    Entry& entry = entries_[i - 1];
    if (entry.num_variables == num_variables &&
        entry.num_constraints == num_constraints) {
      // Move to the back (most recently used) so eviction hits stale
      // shapes first.
      std::rotate(entries_.begin() + (i - 1), entries_.begin() + i,
                  entries_.end());
      return &entries_.back().basis;
    }
  }
  return nullptr;
}

void WarmStartBasisCache::Store(int num_variables, int num_constraints,
                                WarmStartBasis basis) {
  if (basis.empty()) {
    return;
  }
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].num_variables == num_variables &&
        entries_[i].num_constraints == num_constraints) {
      entries_[i].basis = std::move(basis);
      std::rotate(entries_.begin() + i, entries_.begin() + i + 1,
                  entries_.end());
      return;
    }
  }
  if (entries_.size() >= kMaxEntries) {
    entries_.erase(entries_.begin());  // Least recently used.
  }
  entries_.push_back(Entry{num_variables, num_constraints, std::move(basis)});
}

namespace {

void BumpStat(std::atomic<std::uint64_t>& counter, std::uint64_t amount = 1) {
  counter.fetch_add(amount, std::memory_order_relaxed);
}

// Adds wall time to one SimplexStats phase counter at a time: `Switch`
// closes the running phase and opens the next, and destruction closes the
// last one, so every return path is accounted for.
class PhaseTimer {
 public:
  explicit PhaseTimer(std::atomic<std::uint64_t>& counter)
      : counter_(&counter), start_(Clock::now()) {}
  ~PhaseTimer() { Close(Clock::now()); }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  void Switch(std::atomic<std::uint64_t>& counter) {
    const Clock::time_point now = Clock::now();
    Close(now);
    counter_ = &counter;
    start_ = now;
  }

 private:
  using Clock = std::chrono::steady_clock;

  void Close(Clock::time_point now) {
    BumpStat(*counter_,
             static_cast<std::uint64_t>(
                 std::chrono::duration_cast<std::chrono::nanoseconds>(
                     now - start_)
                     .count()));
  }

  std::atomic<std::uint64_t>* counter_;
  Clock::time_point start_;
};

// Arithmetic-tier glue. Both scalars are exact rationals; the small one
// abstains (via a sticky thread-local flag) instead of losing precision.
template <typename Scalar>
struct ScalarOps;

template <>
struct ScalarOps<Rational> {
  static bool FromRational(const Rational& value, Rational* out) {
    *out = value;
    return true;
  }
  static Rational ToRational(const Rational& value) { return value; }
  static void SubtractProduct(Rational* target, const Rational& factor,
                              const Rational& value) {
    *target -= factor * value;
  }
  static bool Overflowed() { return false; }
  static void ClearOverflow() {}
};

template <>
struct ScalarOps<SmallRational> {
  static bool FromRational(const Rational& value, SmallRational* out) {
    Result<std::int64_t> num = value.numerator().ToInt64();
    Result<std::int64_t> den = value.denominator().ToInt64();
    if (!num.ok() || !den.ok()) {
      return false;
    }
    // Rational keeps fractions reduced with a positive denominator, so the
    // parts can be adopted verbatim.
    *out = SmallRational::FromReduced(*num, *den);
    return true;
  }
  static Rational ToRational(const SmallRational& value) {
    return Rational(BigInt(value.numerator()), BigInt(value.denominator()));
  }
  static void SubtractProduct(SmallRational* target,
                              const SmallRational& factor,
                              const SmallRational& value) {
    target->SubtractProduct(factor, value);
  }
  static bool Overflowed() { return SmallRational::OverflowSeen(); }
  static void ClearOverflow() { SmallRational::ClearOverflow(); }
};

// Tier-independent tableau shape: column layout and sign-normalized sparse
// rows, still in exact `Rational` form. Computed once per solve and shared
// by both tiers (the exact fallback must see exactly the system the fast
// attempt saw).
//
// Column layout: [structural columns][slack/surplus columns][artificial
// columns], plus the right-hand side kept separately. Structural columns
// encode user variables: a nonnegative variable occupies one column; a
// free variable is split into two columns (x = pos - neg).
struct TableauLayout {
  struct Row {
    // Structural nonzeros, sorted by column.
    std::vector<std::pair<int, Rational>> coeffs;
    Rational rhs;
    ConstraintSense sense = ConstraintSense::kEqual;
    int slack_column = -1;
    int slack_sign = 0;
    int artificial_column = -1;
  };

  std::vector<int> column_of_var;
  std::vector<int> neg_column_of_var;
  int num_columns = 0;
  int num_structural = 0;
  int num_with_slacks = 0;
  std::vector<Row> rows;

  explicit TableauLayout(const LinearSystem& system) {
    // Assign structural columns.
    column_of_var.resize(system.num_variables());
    neg_column_of_var.assign(system.num_variables(), -1);
    for (VarId v = 0; v < system.num_variables(); ++v) {
      column_of_var[v] = num_columns++;
      if (!system.IsNonnegative(v)) {
        neg_column_of_var[v] = num_columns++;
      }
    }
    num_structural = num_columns;

    // One row per constraint, with b >= 0 after sign normalization.
    rows.reserve(system.num_constraints());
    for (const Constraint& constraint : system.constraints()) {
      Row row;
      row.rhs = -constraint.expr.constant();
      ConstraintSense sense = constraint.sense;
      // Normalize to b >= 0; additionally flip zero-RHS `>=` rows into
      // `<=` form so their slack can start basic — homogeneous systems
      // then need (almost) no artificials and phase 1 is trivial.
      const bool flip =
          row.rhs.IsNegative() ||
          (row.rhs.IsZero() && sense == ConstraintSense::kGreaterEqual);
      // Terms are sorted by variable and a variable's columns are
      // consecutive, so appending keeps the row sorted by column.
      row.coeffs.reserve(constraint.expr.terms().size());
      for (const auto& [var, coeff] : constraint.expr.terms()) {
        row.coeffs.emplace_back(column_of_var[var], flip ? -coeff : coeff);
        if (neg_column_of_var[var] >= 0) {
          row.coeffs.emplace_back(neg_column_of_var[var],
                                  flip ? coeff : -coeff);
        }
      }
      if (flip) {
        row.rhs = -row.rhs;
        if (sense == ConstraintSense::kLessEqual) {
          sense = ConstraintSense::kGreaterEqual;
        } else if (sense == ConstraintSense::kGreaterEqual) {
          sense = ConstraintSense::kLessEqual;
        }
      }
      row.sense = sense;
      rows.push_back(std::move(row));
    }

    // Slack / surplus columns.
    for (Row& row : rows) {
      if (row.sense == ConstraintSense::kLessEqual) {
        row.slack_column = num_columns++;
        row.slack_sign = 1;
      } else if (row.sense == ConstraintSense::kGreaterEqual) {
        row.slack_column = num_columns++;
        row.slack_sign = -1;
      }
    }
    num_with_slacks = num_columns;

    // Artificial columns: needed for == rows and >= rows (whose surplus
    // enters with -1 and cannot start basic). A <= row's slack starts basic.
    for (Row& row : rows) {
      bool needs_artificial = row.sense != ConstraintSense::kLessEqual;
      if (needs_artificial) {
        row.artificial_column = num_columns++;
      }
    }
  }
};

enum class RunOutcome {
  kOptimal,
  kUnbounded,
  // A fast-tier value left the representable range; results are unusable
  // and the caller restarts the solve on the exact tier.
  kOverflow,
  // The resource guard tripped mid-run; the solve is abandoned for good
  // (no tier fallback — the trip is sticky).
  kTripped,
};

enum class Phase1Outcome { kFeasible, kInfeasible, kOverflow, kTripped };

// Result of pivoting into a carried basis (see Tableau::TryWarmStart).
enum class WarmStartOutcome {
  // The basis pivoted in and is primal-feasible; skip phase 1.
  kFeasible,
  // The adopted basis is primal-feasible (rhs >= 0) but an artificial is
  // still basic: continue phase 1 from this tableau instead of rebuilding.
  kPartial,
  // Layout mismatch, overflow, or a negative rhs after pivot-in; the
  // caller discards the tableau and runs cold.
  kRejected,
};

// Sparse two-phase primal simplex over an exact scalar type, built from a
// shared `TableauLayout`. Each row stores its nonzeros (in no particular
// order), and a column -> rows index lists, for every column, every row
// holding a nonzero in it. A pivot therefore visits only the rows with a
// nonzero in the pivot column, and in each only its own nonzeros and the
// pivot row's. It performs exactly the arithmetic a dense elimination
// performs on nonzero operands, so values, pivot choices and fast-tier
// overflow flags are those of a dense tableau; every choice that scans
// rows or columns takes the lowest index, whatever order it visits them in.
//
// Cancellation does not touch the index: a list may also name rows whose
// entry has since cancelled, and name a row twice once it fills in again.
// Every reader looks the entry up and skips such rows, and the index is
// rebuilt from the rows once its lists outgrow four times the nonzeros.
template <typename Scalar>
class Tableau {
 public:
  Tableau(const LinearSystem& system, const TableauLayout& layout,
          ResourceGuard* guard = nullptr)
      : system_(&system), layout_(&layout), guard_(guard),
        live_columns_(layout.num_columns) {
    const size_t m = layout.rows.size();
    rows_.resize(m);
    rhs_.assign(m, Scalar());
    basis_.assign(m, -1);
    basic_row_.assign(layout.num_columns, -1);
    column_rows_.resize(layout.num_columns);
    pivot_slot_.resize(layout.num_columns);
    row_gathered_.assign(m, 0);
    for (size_t i = 0; i < m; ++i) {
      const TableauLayout::Row& layout_row = layout.rows[i];
      std::vector<Entry>& row = rows_[i];
      row.reserve(layout_row.coeffs.size() + 2);
      for (const auto& [column, coeff] : layout_row.coeffs) {
        Scalar value;
        if (!ScalarOps<Scalar>::FromRational(coeff, &value)) {
          ok_ = false;
          return;
        }
        row.push_back(Entry{column, std::move(value)});
      }
      if (layout_row.slack_column >= 0) {
        row.push_back(
            Entry{layout_row.slack_column, Scalar(layout_row.slack_sign)});
      }
      if (layout_row.artificial_column >= 0) {
        row.push_back(Entry{layout_row.artificial_column, Scalar(1)});
        basis_[i] = layout_row.artificial_column;
      } else {
        basis_[i] = layout_row.slack_column;
      }
      basic_row_[basis_[i]] = static_cast<int>(i);
      for (const Entry& entry : row) {
        column_rows_[entry.column].push_back(static_cast<int>(i));
      }
      nonzeros_ += row.size();
      listed_ += row.size();
      if (!ScalarOps<Scalar>::FromRational(layout_row.rhs, &rhs_[i])) {
        ok_ = false;
        return;
      }
    }
    // Charge what the tableau stores: the per-row and per-column arrays,
    // its nonzeros and the column index. Fill-in raises the charge
    // (ChargeStorage).
    charged_bytes_ = StoredBytes();
    charge_ = ScopedMemoryCharge(
        guard_, m * kRowBytes + layout.num_columns * kColumnBytes +
                    charged_bytes_);
  }

  // False when some input coefficient was not representable in `Scalar`.
  bool ok() const { return ok_; }

  // Attempts to adopt a carried basis and skip (or at least warm) phase 1.
  // The carried columns are treated as a *candidate set*, not a row
  // assignment: each is pivoted into whichever not-yet-claimed row has a
  // nonzero entry for it (preferring rows whose current basic variable is
  // an artificial, since evicting those is the whole point; the lowest
  // such row index wins), and columns that have gone linearly dependent
  // under the changed system are simply skipped. This makes pivot-in
  // total: row counts may differ (redundant rows get dropped from exported
  // bases), bases may be degenerate, and the order the previous solve
  // happened to leave them in never matters.
  //
  // A landing with a negative rhs entry is rejected. If any artificial is
  // still basic after a feasible landing the result is kPartial: the
  // tableau is a valid primal-feasible phase-1 start (rhs >= 0), so the
  // caller continues phase 1 from it instead of from scratch — phase 2
  // must never see a basic artificial, even a degenerate one (a pivot
  // elsewhere in its row could push it positive again). On kRejected the
  // tableau may be left mid-elimination — the caller must discard it and
  // rebuild.
  WarmStartOutcome TryWarmStart(const WarmStartBasis& warm) {
    if (warm.num_columns != layout_->num_columns) {
      return WarmStartOutcome::kRejected;  // Differently-shaped system.
    }
    if (CRSAT_FAILPOINT("lp/warm_start_reject")) {
      return WarmStartOutcome::kRejected;  // Injected shape mismatch.
    }
    std::vector<bool> row_claimed(rows_.size(), false);
    for (int column : warm.basis) {
      if (column < 0 || column >= layout_->num_with_slacks) {
        continue;  // Artificials are never adopted from a carry.
      }
      // Already basic (a slack that starts basic, or a duplicate): claim
      // its row so a later column does not evict it.
      if (basic_row_[column] >= 0) {
        row_claimed[basic_row_[column]] = true;
        continue;
      }
      int artificial_row = -1;
      int any_row = -1;
      GatherColumn(column);
      for (const ColumnEntry& entry : column_entries_) {
        const int i = entry.row;
        if (row_claimed[i]) {
          continue;
        }
        if (any_row < 0 || i < any_row) {
          any_row = i;
        }
        if (IsArtificial(basis_[i]) &&
            (artificial_row < 0 || i < artificial_row)) {
          artificial_row = i;
        }
      }
      const int row = artificial_row >= 0 ? artificial_row : any_row;
      if (row < 0) {
        continue;  // Dependent on the columns already placed; skip it.
      }
      Pivot(row, column);
      if (ScalarOps<Scalar>::Overflowed()) {
        return WarmStartOutcome::kRejected;
      }
      row_claimed[row] = true;
    }
    for (const Scalar& rhs : rhs_) {
      if (rhs.IsNegative()) {
        return WarmStartOutcome::kRejected;
      }
    }
    return AnyArtificialBasic() ? WarmStartOutcome::kPartial
                                : WarmStartOutcome::kFeasible;
  }

  bool AnyArtificialBasic() const {
    for (int column : basis_) {
      if (IsArtificial(column)) {
        return true;
      }
    }
    return false;
  }

  // Runs phase 1 (minimize the sum of artificials).
  Phase1Outcome SolvePhase1() {
    std::vector<Scalar> costs(layout_->num_columns, Scalar());
    for (int j = first_artificial(); j < layout_->num_columns; ++j) {
      costs[j] = Scalar(1);
    }
    RunOutcome outcome = RunSimplex(costs, /*allow_artificials=*/true);
    if (outcome == RunOutcome::kOverflow) {
      return Phase1Outcome::kOverflow;
    }
    if (outcome == RunOutcome::kTripped) {
      return Phase1Outcome::kTripped;
    }
    // Phase 1 is bounded below by 0, so kUnbounded cannot happen.
    Scalar value = ObjectiveValue(costs);
    if (ScalarOps<Scalar>::Overflowed()) {
      return Phase1Outcome::kOverflow;
    }
    if (value.IsPositive()) {
      return Phase1Outcome::kInfeasible;
    }
    EliminateArtificialsFromBasis();
    if (ScalarOps<Scalar>::Overflowed()) {
      return Phase1Outcome::kOverflow;
    }
    return Phase1Outcome::kFeasible;
  }

  // Runs phase 2 minimizing `costs` over the structural columns; `costs`
  // has one entry per structural column.
  RunOutcome SolvePhase2(const std::vector<Scalar>& structural_costs) {
    // Once no artificial is basic, none can ever become basic again
    // (phase 2 bars them from entering), so their columns are dead
    // weight: drop their entries so that pricing, the pivot-row
    // eliminations and the maintained reduced-cost row cover only the
    // structural and slack range.
    if (!AnyArtificialBasic()) {
      DropArtificialColumns();
    }
    std::vector<Scalar> costs(layout_->num_columns, Scalar());
    for (int j = 0; j < layout_->num_structural; ++j) {
      costs[j] = structural_costs[j];
    }
    return RunSimplex(costs, /*allow_artificials=*/false);
  }

  // Extracts per-user-variable values from the current basic solution.
  std::vector<Rational> ExtractValues() const {
    std::vector<Scalar> column_values(layout_->num_columns, Scalar());
    for (size_t i = 0; i < basis_.size(); ++i) {
      column_values[basis_[i]] = rhs_[i];
    }
    std::vector<Rational> values(system_->num_variables(), Rational());
    for (VarId v = 0; v < system_->num_variables(); ++v) {
      values[v] = ScalarOps<Scalar>::ToRational(
          column_values[layout_->column_of_var[v]]);
      if (layout_->neg_column_of_var[v] >= 0) {
        values[v] -= ScalarOps<Scalar>::ToRational(
            column_values[layout_->neg_column_of_var[v]]);
      }
    }
    return values;
  }

  void ExportBasis(WarmStartBasis* out) const {
    out->basis = basis_;
    out->num_columns = layout_->num_columns;
  }

  std::uint64_t pivots() const { return pivots_; }
  std::uint64_t phase1_pivots() const { return phase1_pivots_; }

 private:
  // A nonzero of a row.
  struct Entry {
    int column;
    Scalar value;
  };
  // A nonzero of a column.
  struct ColumnEntry {
    int row;
    Scalar value;
  };
  struct PivotSlot {
    std::uint64_t stamp = 0;
    int position = 0;
  };

  // Guard-charged bytes per row and per column, beyond the nonzeros and
  // the column index (StoredBytes).
  static constexpr std::uint64_t kRowBytes = sizeof(std::vector<Entry>) +
                                             sizeof(Scalar) + sizeof(int) +
                                             sizeof(std::uint64_t);
  static constexpr std::uint64_t kColumnBytes =
      sizeof(std::vector<int>) + sizeof(Scalar) + sizeof(int) +
      sizeof(PivotSlot) + sizeof(std::uint64_t);

  int first_artificial() const { return layout_->num_with_slacks; }

  bool IsArtificial(int column) const {
    return column >= layout_->num_with_slacks;
  }

  // The entry of `row` in `column`, or nullptr when it is zero.
  const Entry* Find(int row, int column) const {
    for (const Entry& entry : rows_[row]) {
      if (entry.column == column) {
        return &entry;
      }
    }
    return nullptr;
  }

  Scalar ObjectiveValue(const std::vector<Scalar>& costs) const {
    Scalar total;
    for (size_t i = 0; i < basis_.size(); ++i) {
      total += costs[basis_[i]] * rhs_[i];
    }
    return total;
  }

  // Primal simplex minimizing `costs`. Pricing: Dantzig's rule (most
  // negative maintained reduced cost) for speed, with a
  // permanent-within-the-run switch to Bland's rule after a long
  // degenerate streak to guarantee termination (cycling can only happen
  // inside a degenerate sequence; any strict objective improvement resets
  // the streak). Artificial columns are barred from re-entering the basis
  // in phase 2. On the fast tier the sticky overflow flag is checked once
  // per iteration: every in-range intermediate is exact, so a run that
  // finishes unflagged is bit-for-bit the exact tier's result.
  RunOutcome RunSimplex(const std::vector<Scalar>& costs,
                        bool allow_artificials) {
    const int num_columns = live_columns_;
    // Initialize the maintained reduced-cost row:
    //   z_j = c_j - sum_i c_B(i) * T[i][j],
    // which Pivot then updates over the pivot row's nonzeros.
    reduced_.assign(costs.begin(), costs.begin() + num_columns);
    for (size_t i = 0; i < basis_.size(); ++i) {
      const Scalar& basis_cost = costs[basis_[i]];
      if (basis_cost.IsZero()) {
        continue;
      }
      for (const Entry& entry : rows_[i]) {
        reduced_[entry.column] -= basis_cost * entry.value;
      }
    }

    constexpr int kBlandStreak = 30;
    int degenerate_streak = 0;
    while (true) {
      if (ScalarOps<Scalar>::Overflowed()) {
        return RunOutcome::kOverflow;
      }
      if (guard_ != nullptr && !guard_->Check("simplex/pivot").ok()) {
        return RunOutcome::kTripped;
      }
      const bool use_bland = degenerate_streak >= kBlandStreak;
      int entering = -1;
      for (int j = 0; j < num_columns; ++j) {
        if (!allow_artificials && IsArtificial(j)) {
          continue;
        }
        if (!reduced_[j].IsNegative()) {
          continue;
        }
        if (use_bland) {
          entering = j;  // First improving index.
          break;
        }
        if (entering < 0 || reduced_[j] < reduced_[entering]) {
          entering = j;  // Most negative reduced cost.
        }
      }
      if (entering < 0) {
        return RunOutcome::kOptimal;
      }
      // Ratio test over the rows with a nonzero in the entering column.
      // Ties on the ratio go to the smaller basic column, so the winner
      // does not depend on the order the column index lists rows in.
      int leaving_row = -1;
      Scalar best_ratio;
      GatherColumn(entering);
      for (const ColumnEntry& entry : column_entries_) {
        if (!entry.value.IsPositive()) {
          continue;
        }
        const int i = entry.row;
        Scalar ratio = rhs_[i] / entry.value;
        if (leaving_row < 0 || ratio < best_ratio ||
            (ratio == best_ratio && basis_[i] < basis_[leaving_row])) {
          leaving_row = i;
          best_ratio = ratio;
        }
      }
      if (ScalarOps<Scalar>::Overflowed()) {
        return RunOutcome::kOverflow;
      }
      if (leaving_row < 0) {
        return RunOutcome::kUnbounded;
      }
      degenerate_streak = best_ratio.IsZero() ? degenerate_streak + 1 : 0;
      ++pivots_;
      if (allow_artificials) {
        ++phase1_pivots_;
      }
      Pivot(leaving_row, entering);
    }
  }

  // Collects the nonzeros of `column` into column_entries_ and drops the
  // rows its index list names in vain (cancelled or repeated).
  void GatherColumn(int column) {
    ++gather_stamp_;
    column_entries_.clear();
    std::vector<int>& rows = column_rows_[column];
    size_t kept = 0;
    for (int i : rows) {
      const Entry* entry = row_gathered_[i] != gather_stamp_ ? Find(i, column)
                                                              : nullptr;
      if (entry == nullptr) {
        continue;
      }
      row_gathered_[i] = gather_stamp_;
      column_entries_.push_back(ColumnEntry{i, entry->value});
      rows[kept++] = i;
    }
    listed_ -= rows.size() - kept;
    rows.resize(kept);
    gathered_column_ = column;
  }

  void Pivot(int pivot_row, int pivot_column) {
    if (gathered_column_ != pivot_column) {
      GatherColumn(pivot_column);
    }
    gathered_column_ = -1;  // Stale once the rows change below.
    Scalar pivot;
    for (const ColumnEntry& entry : column_entries_) {
      if (entry.row == pivot_row) {
        pivot = entry.value;
        break;
      }
    }
    for (Entry& entry : rows_[pivot_row]) {
      entry.value /= pivot;
    }
    rhs_[pivot_row] /= pivot;
    // Scatter the pivot row: column -> its position in the row.
    ++pivot_stamp_;
    const std::vector<Entry>& pivot_entries = rows_[pivot_row];
    for (size_t k = 0; k < pivot_entries.size(); ++k) {
      pivot_slot_[pivot_entries[k].column] =
          PivotSlot{pivot_stamp_, static_cast<int>(k)};
    }
    if (matched_.size() < pivot_entries.size()) {
      matched_.resize(pivot_entries.size(), 0);
    }
    for (const ColumnEntry& entry : column_entries_) {
      if (entry.row != pivot_row) {
        EliminateRow(entry.row, pivot_row, pivot_column, entry.value);
      }
    }
    // Afterwards only the pivot row holds the pivot column.
    listed_ -= column_rows_[pivot_column].size() - 1;
    column_rows_[pivot_column].assign(1, pivot_row);
    // The maintained reduced-cost row is eliminated like any other row
    // (only meaningful while RunSimplex is active; stale otherwise).
    if (reduced_.size() == static_cast<size_t>(live_columns_)) {
      Scalar factor = reduced_[pivot_column];
      if (!factor.IsZero()) {
        for (const Entry& entry : rows_[pivot_row]) {
          reduced_[entry.column] -= factor * entry.value;
        }
      }
    }
    basic_row_[basis_[pivot_row]] = -1;
    basis_[pivot_row] = pivot_column;
    basic_row_[pivot_column] = pivot_row;
    if (listed_ > 4 * nonzeros_) {
      RebuildIndex();
    }
    ChargeStorage();
  }

  // row[i] -= factor * row[pivot_row], with factor = row[i][pivot_column]
  // and the pivot row scattered by Pivot. One pass updates the row's
  // entries in place and drops those that cancel (the pivot row holds 1 in
  // the pivot column, so that entry cancels without arithmetic); a second
  // pass appends the fill-in and lists it in the column index.
  void EliminateRow(int i, int pivot_row, int pivot_column,
                    const Scalar factor) {
    const std::vector<Entry>& pivot_entries = rows_[pivot_row];
    std::vector<Entry>& entries = rows_[i];
    ++row_stamp_;
    size_t kept = 0;
    for (size_t k = 0; k < entries.size(); ++k) {
      Entry& entry = entries[k];
      const int column = entry.column;
      const PivotSlot& slot = pivot_slot_[column];
      if (slot.stamp == pivot_stamp_) {
        matched_[slot.position] = row_stamp_;
        if (column == pivot_column) {
          continue;
        }
        ScalarOps<Scalar>::SubtractProduct(
            &entry.value, factor, pivot_entries[slot.position].value);
        if (entry.value.IsZero()) {
          continue;
        }
      }
      if (kept != k) {
        entries[kept] = std::move(entry);
      }
      ++kept;
    }
    nonzeros_ -= entries.size() - kept;
    entries.erase(entries.begin() + kept, entries.end());
    for (size_t k = 0; k < pivot_entries.size(); ++k) {
      if (matched_[k] == row_stamp_) {
        continue;
      }
      const Entry& pivot_entry = pivot_entries[k];
      Scalar value;
      ScalarOps<Scalar>::SubtractProduct(&value, factor, pivot_entry.value);
      if (!value.IsZero()) {
        entries.push_back(Entry{pivot_entry.column, std::move(value)});
        column_rows_[pivot_entry.column].push_back(i);
        ++nonzeros_;
        ++listed_;
      }
    }
    rhs_[i] -= factor * rhs_[pivot_row];
  }

  std::uint64_t StoredBytes() const {
    return nonzeros_ * sizeof(Entry) + listed_ * sizeof(int);
  }

  // Raises the guard charge to the high-water mark of the stored nonzeros
  // and column index.
  void ChargeStorage() {
    const std::uint64_t stored = StoredBytes();
    if (stored > charged_bytes_) {
      charge_.Add(stored - charged_bytes_);
      charged_bytes_ = stored;
    }
  }

  // Removes every artificial-column entry and narrows the live column
  // range to the structural and slack columns.
  void DropArtificialColumns() {
    const int first = first_artificial();
    for (std::vector<Entry>& entries : rows_) {
      const size_t size = entries.size();
      entries.erase(std::remove_if(entries.begin(), entries.end(),
                                   [first](const Entry& entry) {
                                     return entry.column >= first;
                                   }),
                    entries.end());
      nonzeros_ -= size - entries.size();
    }
    RebuildIndex();
    live_columns_ = first;
  }

  // After a successful phase 1, pivots any (necessarily degenerate)
  // artificial variables out of the basis, entering the lowest-index
  // nonbasic column with a nonzero in the row; rows that cannot be pivoted
  // are redundant and are dropped.
  void EliminateArtificialsFromBasis() {
    for (size_t i = 0; i < basis_.size();) {
      if (!IsArtificial(basis_[i])) {
        ++i;
        continue;
      }
      int pivot_column = -1;
      for (const Entry& entry : rows_[i]) {
        if (entry.column < layout_->num_with_slacks &&
            basic_row_[entry.column] < 0 &&
            (pivot_column < 0 || entry.column < pivot_column)) {
          pivot_column = entry.column;
        }
      }
      if (pivot_column >= 0) {
        Pivot(static_cast<int>(i), pivot_column);
        ++i;
      } else {
        // Redundant constraint: remove the row.
        nonzeros_ -= rows_[i].size();
        rows_.erase(rows_.begin() + i);
        rhs_.erase(rhs_.begin() + i);
        basis_.erase(basis_.begin() + i);
        RebuildIndex();
      }
    }
  }

  // Recomputes the column index (dropping the rows it names in vain) and
  // the basic-row map (rows shift when one is dropped).
  void RebuildIndex() {
    for (std::vector<int>& rows : column_rows_) {
      rows.clear();
    }
    listed_ = nonzeros_;
    gathered_column_ = -1;
    std::fill(basic_row_.begin(), basic_row_.end(), -1);
    for (size_t i = 0; i < rows_.size(); ++i) {
      for (const Entry& entry : rows_[i]) {
        column_rows_[entry.column].push_back(static_cast<int>(i));
      }
      basic_row_[basis_[i]] = static_cast<int>(i);
    }
  }

  const LinearSystem* system_;
  const TableauLayout* layout_;
  ResourceGuard* guard_ = nullptr;
  // Upper bound of every per-column sweep; narrowed to num_with_slacks by
  // SolvePhase2 once artificial columns can never be touched again.
  int live_columns_ = 0;
  bool ok_ = true;
  std::uint64_t pivots_ = 0;
  std::uint64_t phase1_pivots_ = 0;
  std::vector<std::vector<Entry>> rows_;
  std::vector<Scalar> rhs_;
  std::vector<int> basis_;
  // Column -> the row it is basic in, or -1.
  std::vector<int> basic_row_;
  // Column -> the rows holding a nonzero in it, unordered, possibly with
  // cancelled or repeated rows (see the class comment).
  std::vector<std::vector<int>> column_rows_;
  std::vector<Scalar> reduced_;
  // Pivot scratch. Pivot scatters the pivot row: a column's slot holds its
  // position in the pivot row while the slot's stamp equals pivot_stamp_.
  // EliminateRow marks the pivot-row positions its row holds too:
  // matched_[k] equals row_stamp_.
  std::vector<PivotSlot> pivot_slot_;
  std::vector<std::uint64_t> matched_;
  std::uint64_t pivot_stamp_ = 0;
  std::uint64_t row_stamp_ = 0;
  // One column's nonzeros (GatherColumn), deduplicated through
  // row_gathered_; gathered_column_ is -1 once a pivot made them stale.
  std::vector<ColumnEntry> column_entries_;
  std::vector<std::uint64_t> row_gathered_;
  std::uint64_t gather_stamp_ = 0;
  int gathered_column_ = -1;
  std::uint64_t nonzeros_ = 0;
  // Total length of the column index lists.
  std::uint64_t listed_ = 0;
  std::uint64_t charged_bytes_ = 0;
  ScopedMemoryCharge charge_;
};

enum class TierOutcome { kCompleted, kOverflow, kTripped };

// What happened to the caller-provided basis during one tier's attempt.
// The completing tier's disposition drives the warm-start accounting in
// `SolveWith`: exactly one of hits/misses per attempted solve.
struct WarmDisposition {
  bool attempted = false;  // A non-empty basis was handed in.
  bool used = false;       // It was adopted in place of a cold phase 1.
};

// Runs a full two-phase solve on one arithmetic tier. On kCompleted,
// `*out` holds the verdict (values filled for kOptimal) and the pivot
// out-params the tier's counts; on kOverflow the attempt's pivots are
// still flushed to the global counters by the caller. Tableau builds,
// pivot-in, phase 1 and phase 2 add their wall time to `SimplexStats`.
template <typename Scalar>
TierOutcome SolveOnTier(const LinearSystem& system, const TableauLayout& layout,
                        const std::vector<Rational>& structural_costs,
                        const SimplexOptions& options, LpResult* out,
                        std::uint64_t* tier_pivots,
                        std::uint64_t* tier_phase1_pivots,
                        WarmDisposition* warm) {
  ScalarOps<Scalar>::ClearOverflow();
  *tier_pivots = 0;
  *tier_phase1_pivots = 0;
  *warm = WarmDisposition();
  SimplexStats& stats = GetSimplexStats();

  std::vector<Scalar> costs(structural_costs.size(), Scalar());
  for (size_t j = 0; j < structural_costs.size(); ++j) {
    if (!ScalarOps<Scalar>::FromRational(structural_costs[j], &costs[j])) {
      return TierOutcome::kOverflow;
    }
  }

  // The tableau charges what it stores against the guard's memory budget
  // for the duration of this tier's attempt, and raises the charge as
  // pivots fill it in.
  PhaseTimer timer(stats.layout_ns);
  Tableau<Scalar> tableau(system, layout, options.guard);
  if (!tableau.ok()) {
    return TierOutcome::kOverflow;
  }
  // Discards a tableau a pivot-in left mid-elimination.
  auto rebuild = [&]() {
    timer.Switch(stats.layout_ns);
    ScalarOps<Scalar>::ClearOverflow();
    tableau = Tableau<Scalar>(system, layout, options.guard);
    return tableau.ok();
  };

  bool skip_phase1 = false;
  bool tableau_adopted = false;  // Carried-basis pivots applied (not fresh).
  if (options.warm_start != nullptr && !options.warm_start->empty()) {
    warm->attempted = true;
    timer.Switch(stats.pivot_in_ns);
    switch (tableau.TryWarmStart(*options.warm_start)) {
      case WarmStartOutcome::kFeasible:
        skip_phase1 = true;
        warm->used = true;
        break;
      case WarmStartOutcome::kPartial:
        // Primal-feasible but an artificial survived: run phase 1 from
        // the adopted tableau (it converges in a handful of pivots from
        // here — the whole point of carrying the basis).
        warm->used = true;
        tableau_adopted = true;
        break;
      case WarmStartOutcome::kRejected:
        // The failed attempt may have left the tableau mid-elimination
        // (and possibly overflowed); rebuild and run cold on this tier.
        // Rung 0 -> 1 of the degradation ladder (DESIGN.md §14).
        BumpStat(GetRecoveryStats().warm_start_fallbacks);
        if (!rebuild()) {
          return TierOutcome::kOverflow;
        }
        break;
    }
  }

  // Crash basis: only on a fresh tableau (a partially-adopted carry is
  // already a better phase-1 start than any crash). Outcomes that are not
  // immediately primal-feasible just fall through to the cold phase 1;
  // kRejected means the greedy pivot-in left the tableau mid-elimination,
  // so rebuild first. Never touches the warm-start disposition — a crash
  // is a structural hint from the caller, not a carried basis.
  if (!skip_phase1 && !tableau_adopted && options.crash_vars != nullptr &&
      !options.crash_vars->empty()) {
    timer.Switch(stats.pivot_in_ns);
    WarmStartBasis crash;
    crash.num_columns = layout.num_columns;
    crash.basis.reserve(options.crash_vars->size());
    for (VarId v : *options.crash_vars) {
      crash.basis.push_back(layout.column_of_var[v]);
    }
    const WarmStartOutcome crashed = tableau.TryWarmStart(crash);
    if (crashed == WarmStartOutcome::kFeasible) {
      skip_phase1 = true;
    } else if (crashed == WarmStartOutcome::kRejected && !rebuild()) {
      return TierOutcome::kOverflow;
    }
    // kPartial: rhs >= 0 with some artificial still basic — a valid (and
    // cheaper) phase-1 start; keep the tableau.
  }

  if (!skip_phase1) {
    timer.Switch(stats.phase1_ns);
    Phase1Outcome phase1 = tableau.SolvePhase1();
    *tier_pivots = tableau.pivots();
    *tier_phase1_pivots = tableau.phase1_pivots();
    if (phase1 == Phase1Outcome::kOverflow) {
      return TierOutcome::kOverflow;
    }
    if (phase1 == Phase1Outcome::kTripped) {
      return TierOutcome::kTripped;
    }
    if (phase1 == Phase1Outcome::kInfeasible) {
      out->outcome = LpOutcome::kInfeasible;
      return TierOutcome::kCompleted;
    }
  }

  timer.Switch(stats.phase2_ns);
  RunOutcome phase2 = tableau.SolvePhase2(costs);
  *tier_pivots = tableau.pivots();
  *tier_phase1_pivots = tableau.phase1_pivots();
  if (phase2 == RunOutcome::kOverflow) {
    return TierOutcome::kOverflow;
  }
  if (phase2 == RunOutcome::kTripped) {
    return TierOutcome::kTripped;
  }
  if (phase2 == RunOutcome::kUnbounded) {
    out->outcome = LpOutcome::kUnbounded;
    return TierOutcome::kCompleted;
  }
  out->outcome = LpOutcome::kOptimal;
  out->values = tableau.ExtractValues();
  if (ScalarOps<Scalar>::Overflowed()) {
    return TierOutcome::kOverflow;
  }
  if (options.export_basis != nullptr) {
    tableau.ExportBasis(options.export_basis);
  }
  return TierOutcome::kCompleted;
}

TableauLayout BuildLayout(const LinearSystem& system, SimplexStats& stats) {
  PhaseTimer timer(stats.layout_ns);
  return TableauLayout(system);
}

// Records the completing tier's warm-start disposition: one hit or miss
// per solve that attempted reuse.
void RecordWarmDisposition(SimplexStats& stats, const WarmDisposition& warm) {
  if (warm.attempted) {
    BumpStat(warm.used ? stats.warm_start_hits : stats.warm_start_misses);
  }
}

// The body of SolveWith. Kept separate so the public entry point can
// wrap it in the std::bad_alloc -> kResourceExhausted boundary: callers
// fan solves out over ThreadPool workers, and an exception escaping a
// worker would std::terminate the process, so the conversion must happen
// here inside the subsystem, not at the CLI.
Result<LpResult> SolveWithImpl(const LinearSystem& system,
                               const LinearExpr& objective, bool maximize,
                               const SimplexOptions& options) {
  if (system.HasStrictConstraints()) {
    return InvalidArgumentError(
        "SimplexSolver does not accept strict constraints; reduce them via "
        "the homogeneous layer first");
  }
  if (options.guard != nullptr) {
    CRSAT_RETURN_IF_ERROR(options.guard->Check("simplex/solve"));
  }
  SimplexStats& stats = GetSimplexStats();
  BumpStat(stats.solves);

  // The forced-cold reference path (`allow_incremental = false`) ignores
  // carried bases entirely so every solve runs the exact code path the
  // differential tests compare against.
  SimplexOptions effective = options;
  if (effective.warm_start != nullptr && !IncrementalReasoningEnabled()) {
    effective.warm_start = nullptr;
  }

  const TableauLayout layout = BuildLayout(system, stats);

  // Structural costs for minimization of +/- objective.
  std::vector<Rational> costs(layout.num_structural, Rational());
  for (const auto& [var, coeff] : objective.terms()) {
    Rational c = maximize ? -coeff : coeff;
    costs[layout.column_of_var[var]] += c;
    if (layout.neg_column_of_var[var] >= 0) {
      costs[layout.neg_column_of_var[var]] -= c;
    }
  }

  std::uint64_t tier_pivots = 0;
  std::uint64_t tier_phase1_pivots = 0;
  WarmDisposition warm;

  bool try_fast_tier = effective.tier == SimplexOptions::Tier::kTwoTier;
  if (try_fast_tier && CRSAT_FAILPOINT("lp/fast_tier_overflow")) {
    // Rung 1 -> 2 without attempting the int64 tier: an injected overflow
    // simulates the fast tier failing at the earliest possible point. The
    // exact re-solve below is the same code the genuine overflow path
    // runs.
    try_fast_tier = false;
    BumpStat(stats.tier_fallbacks);
    BumpStat(GetRecoveryStats().tier_fallbacks);
  }
  if (try_fast_tier) {
    LpResult fast;
    TierOutcome outcome = SolveOnTier<SmallRational>(
        system, layout, costs, effective, &fast, &tier_pivots,
        &tier_phase1_pivots, &warm);
    BumpStat(stats.pivots, tier_pivots);
    BumpStat(stats.phase1_pivots, tier_phase1_pivots);
    if (outcome == TierOutcome::kTripped) {
      // The trip is sticky; an exact-tier restart would trip immediately.
      return effective.guard->TripStatus();
    }
    if (outcome == TierOutcome::kCompleted) {
      BumpStat(stats.fast_solves);
      BumpStat(stats.fast_pivots, tier_pivots);
      RecordWarmDisposition(stats, warm);
      if (fast.outcome == LpOutcome::kOptimal) {
        fast.objective = objective.Evaluate(fast.values);
      }
      return fast;
    }
    BumpStat(stats.tier_fallbacks);
    BumpStat(GetRecoveryStats().tier_fallbacks);
  }

  LpResult exact;
  TierOutcome outcome = SolveOnTier<Rational>(
      system, layout, costs, effective, &exact, &tier_pivots,
      &tier_phase1_pivots, &warm);
  BumpStat(stats.pivots, tier_pivots);
  BumpStat(stats.phase1_pivots, tier_phase1_pivots);
  if (outcome == TierOutcome::kTripped) {
    return effective.guard->TripStatus();
  }
  (void)outcome;  // The exact tier cannot overflow.
  RecordWarmDisposition(stats, warm);
  if (exact.outcome == LpOutcome::kOptimal) {
    exact.objective = objective.Evaluate(exact.values);
  }
  return exact;
}

}  // namespace

Result<LpResult> SimplexSolver::SolveWith(const LinearSystem& system,
                                          const LinearExpr& objective,
                                          bool maximize,
                                          const SimplexOptions& options) {
  // Allocation-failure boundary (rung 3 of the degradation ladder): a
  // genuine std::bad_alloc anywhere in the solve — or the injected
  // `alloc/simplex` fault standing in for one — becomes an honest
  // kResourceExhausted refusal instead of a crash.
  try {
    if (CRSAT_FAILPOINT("alloc/simplex")) {
      throw std::bad_alloc();
    }
    return SolveWithImpl(system, objective, maximize, options);
  } catch (const std::bad_alloc&) {
    BumpStat(GetRecoveryStats().bad_alloc_conversions);
    return ResourceExhaustedError(
        "simplex: allocation failed; returning UNKNOWN instead of "
        "crashing");
  }
}

Result<LpResult> SimplexSolver::Solve(const LinearSystem& system,
                                      const LinearExpr& objective,
                                      bool maximize) {
  return SolveWith(system, objective, maximize, SimplexOptions());
}

Result<LpResult> SimplexSolver::CheckFeasibility(const LinearSystem& system) {
  return Solve(system, LinearExpr(), /*maximize=*/false);
}

}  // namespace crsat
