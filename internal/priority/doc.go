// Package priority implements Audsley-style optimal priority assignment
// (OPA) for multi-stage resource pipelines.
//
// The feasible region (Eq. 15) pays an α penalty for any fixed-priority
// policy other than deadline-monotonic: α = min D_lo/D_hi over pairs in
// which the shorter-deadline task has lower priority. Deadline-monotonic
// earns α = 1, but DM-as-a-policy assigns EQUAL priority to equal
// deadlines, and equal-priority tasks interfere with each other in both
// directions — a real admission cost on workloads whose deadlines are
// quantized (shared SLA classes, cohort deadlines). The OPA search of
// this package assigns strict priority levels lowest-first: at each
// level it tries every unassigned task against a pluggable per-task
// schedulability test and keeps any task that remains schedulable with
// all other unassigned tasks above it. For the monotone tests used here
// the search is optimal for the tested class (THEORY.md §9): if any
// total order passes the test, the search finds one, and the
// deterministic largest-deadline-first tie-break recovers a
// DM-compatible order (α = 1) whenever one is feasible.
//
// Three tests can drive the search:
//
//   - RegionExact — the Theorem 1 delay composition restricted to each
//     task's equal-or-higher-priority interference set, with a per-stage
//     maximum deadline: Σ_j f(U_j)·Dmax_j ≤ D_i·(1 − Σβ_j). The
//     tightest sound test; the admission-time default.
//   - AlphaPenalized — the same composition with one global maximum
//     deadline, i.e. the scalar α form of Eq. 15 applied per task.
//     Coarser than RegionExact; it is the test the closed-form region
//     implies.
//   - ResponseTime — an additive per-stage interference bound
//     Σ_j (C_ij + Σ_hp C_kj) ≤ D_i·(1 − Σβ_j). It genuinely
//     differentiates priority orders beyond deadlines, but it is NOT
//     sound under aperiodic churn (a long-lived task can absorb
//     interference from successive short tasks that are never
//     simultaneously current), so it drives offline comparison and the
//     tightness study, never the zero-miss admission path.
//
// The Admitter applies the search online: admitted tasks keep their
// priorities frozen (the fixed-priority premise of Theorem 1) and each
// arrival is placed at its deadline slot with a strict level — for the
// monotone deadline-scaled tests the exchange lemma (THEORY.md §9)
// shows any feasible slot can be bubbled to the deadline slot, so one
// placement check decides admission and the frozen order stays
// DM-compatible by induction. It implements pipeline.Admitter: set it
// as pipeline.Options.Admitter to run a pipeline under it.
package priority
