// Package online provides a wall-clock, thread-safe variant of the
// feasible-region admission controller for use inside real services
// (as opposed to the simulation controller in internal/core, which is
// driven by a discrete-event clock). Both controllers are one
// core.Engine plus a clock: the engine holds the region, the region
// state (tasktable.State: one row per admitted request, stamped here
// with its absolute deadline, and exact per-stage sums over the
// reserved floors) and the demand scales, and decides with the one
// region test Σ_j f(U_j + v_j·s_j) ≤ α(1 − Σ_j β_j) (Eq. 15). This
// package adds the wall clock, one lock around the engine, a
// hierarchical timer wheel (internal/expiry) and a lock-free reject
// gate. The controller's utilizations equal a set of oracle.Ledgers'
// fed the same operations.
//
// Contributions are expired lazily: locked operations first purge
// entries whose absolute deadline has passed, so no background
// goroutine or timer is needed. A purge is due only once it can flush
// something: the end of the earliest entry's 1 ms level-0 bucket
// (expiry.Wheel.NextFlush). Released requests leave stale wheel entries
// that the purge discards by matching (id, deadline) against the row's
// stamp.
//
// Under sustained overload TryAdmit rejects without taking the lock: a
// rejecting exact test arms a snapshot of the per-stage utilizations.
// Admits only grow utilization, so while no capacity has been freed
// (freedGen, bumped inside every freeing critical section) and no purge
// is due, the snapshot is a componentwise lower bound — a request that
// fails the engine's test (core.Fits) even against it is rejected
// lock-free. The gate probes mandatory-only demand, the quality
// cascade's weakest test. Past the gate the admit's critical section
// can hand back the post-admit region value (TryAdmitValue), which a
// cluster replica publishes without a second lock round. Every admit
// path allocates nothing.
//
// Departure marking and idle resets are driven by the embedding
// application (e.g. from request-completion handlers and worker-idle
// callbacks), mirroring the paper's §4 accounting. Around the data
// plane the package adds the Reconcile watchdog and Prometheus metrics;
// SetRegionInputs swaps the α/β inputs at runtime (the adaptive loop's
// entry point); TryAdmitAll and ReleaseAll batch admissions and
// releases under one lock. See DESIGN.md §7 for the concurrency design.
package online
