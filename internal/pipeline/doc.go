// Package pipeline wires the substrates into the paper's system: an
// N-stage resource pipeline with per-stage preemptive fixed-priority
// schedulers, a synthetic-utilization admission controller at the entry,
// deadline-decrement and idle-reset accounting, optional wait-queue
// admission, and the measurement plumbing the experiments need. It also
// executes DAG-structured tasks over a set of resources (paper §3.3,
// Theorem 2).
//
// Options.Admitter alone picks the admission plane: nil selects
// core.Controller, any other Admitter (the online OPA search, the
// split-deadline baseline, a cluster replica) replaces it, and
// NoAdmission admits everything. The paper's §5 extensions of the
// controller — semantic load shedding (EnableShedding), quality
// degradation (EnableDegradation, Governor), the overrun guard
// (OverrunPolicy) and the estimation loop (Adapt) — need
// core.Controller, and New refuses them beside another plane. Fault
// injection (Faults), runtime metrics (Metrics, with per-stage
// deadline-miss attribution: feasregion_pipeline_misses{stage=...}
// charges the stage whose tenure the deadline expired in) and the
// stage-health feedback monitor (Health) attach to any plane.
package pipeline
