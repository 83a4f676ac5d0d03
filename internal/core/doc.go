// Package core implements the paper's contribution: the multi-dimensional
// feasible region for aperiodic end-to-end deadlines in resource pipelines
// (and arbitrary DAG task graphs), the synthetic-utilization ledger that
// tracks the system's position in utilization space online, and the O(N)
// admission controllers built on top.
//
// The math, with equation numbers following the paper (see THEORY.md):
//
//   - Synthetic utilization. Each stage j keeps U_j(t) = Σ_i C_ij/D_i over
//     the tasks currently contributing — admitted, not yet past their
//     deadline, not yet cleared by an idle reset. Every controller keeps
//     these contributions in one region state (internal/tasktable, also
//     the online controller's): one row per task, an exact sum of quantized
//     charges per stage, and the reserved floors; StageLedger is
//     Controller's per-stage view. oracle.Ledger is the standalone
//     map-based account, kept as the reference the region state is tested
//     against.
//   - Stage delay theorem (Theorem 1). While U_j stays below a threshold,
//     no task waits at stage j longer than L_j = f(U_j)·Dmax with
//     f(U) = U(1 − U/2)/(1 − U) (Eq. 10, StageDelayFactor).
//   - The feasible region. Summing per-stage delays against the shortest
//     deadline yields Σ_j f(U_j) ≤ α(1 − Σ_j β_j) (Eq. 15, Region): α is
//     the urgency-inversion factor of the priority policy (1 for
//     deadline-monotonic, Eq. 13; Dleast/Dmost for random priorities,
//     Eq. 12) and β_j = max_i B_ij/D_i normalizes priority-inversion
//     blocking. GraphRegion generalizes the sum to the longest path of a
//     task DAG (Theorem 2, Eq. 16).
//
// Admission control is then a point-in-region test: admit a task iff
// the ledger stays inside the region with its contributions added. The
// clock-free Engine owns the region, the region state and the demand
// scales, and runs the one test (Fits), the quality search (FitLevel)
// and the commit. Controller is the engine plus the discrete-event
// simulation clock (pooled expiry timers, the estimator, peaks, release
// hooks); package online's controller is the same engine plus the wall
// clock, a lock and a lock-free reject gate. The overrun guard (Guard),
// wait queue, shedding planner, and reservation floors are the §5
// extensions that keep the test sound when declared demands lie or when
// certified-critical traffic bypasses it.
package core
