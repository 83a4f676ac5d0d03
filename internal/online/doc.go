// Package online provides a wall-clock, thread-safe variant of the
// feasible-region admission controller for use inside real services
// (as opposed to the simulation controller in internal/core, which is
// driven by a discrete-event clock). The admission test is the same
// point-in-region check Σ_j f(U_j) ≤ α(1 − Σ_j β_j) (Eq. 15).
//
// The data plane is internal/shard: per-stage synthetic utilization in
// a task table, one exact region test under one lock by default, or the
// bound partitioned across Config.Shards shards for multi-core admit
// throughput — every shard count admits the same requests. Under
// sustained overload TryAdmit rejects without taking a lock, and the
// admission test allocates nothing. Contributions are expired lazily:
// locked operations first purge entries whose absolute deadline has
// passed, using a hierarchical timer wheel keyed by deadline, so no
// background goroutine or timer is needed. Departure marking and idle
// resets are driven by the embedding application (e.g. from
// request-completion handlers and worker-idle callbacks), mirroring the
// paper's §4 accounting.
//
// This package adds what a service needs around the data plane: the
// Reconcile watchdog and Prometheus metrics. SetRegionInputs swaps the
// α/β inputs at runtime (the adaptive loop's entry point); ReleaseAll
// batch-applies releases. See DESIGN.md §7 and §11 for the concurrency
// design.
package online
