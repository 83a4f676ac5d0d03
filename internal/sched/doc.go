// Package sched models a single preemptive fixed-priority resource (one
// pipeline stage): a ready queue ordered by priority (a binary heap
// whose slots cache each job's effective priority, refreshed wherever
// priority inheritance changes it), preemption of the
// running subtask by more urgent arrivals, idle notification (which the
// admission controller's synthetic-utilization reset hooks into), and the
// priority ceiling protocol for stage-local critical sections (whose
// worst-case blocking is the B_ij behind the region's β_j terms, Eq. 15).
// Per-job execution budgets and the overrun callback are the detection
// half of the core.Guard; SetExecModel is the fault injector's hook for
// inflating execution behind the declared demand.
package sched
