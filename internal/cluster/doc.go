// Package cluster lifts the feasible-region admission model from one
// pipeline to a fleet of replicas, using regional headroom — admission
// capacity under the paper's delay bound, not CPU — as the routing and
// scaling signal.
//
// The package is a control-plane/data-plane split:
//
//   - Replica wraps a per-replica online.Controller (a full admission
//     data plane) behind a placement lifecycle
//     (Active → Draining → Stopped) and publishes a seqlock-mirrored
//     (headroom, value) snapshot that the router reads lock-free.
//   - Router places each arriving request on a replica chosen by
//     pluggable policy: round-robin, headroom-greedy, or
//     power-of-two-choices over the published snapshots. The hot path
//     takes no locks and performs no allocations; when a
//     headroom-aware policy's first choice races a concurrent admit
//     and rejects, the placement rolls back to the second choice.
//     Under power of two choices, Route gives each concurrent caller
//     (a per-P hint) a home share of the replicas: callers claim
//     ownership of about n/callers replicas each, a caller that stops
//     routing loses its share to the others' rescans, and p2c with
//     memory (re-probe the richer of the last placement's two probes)
//     runs inside the share. Two callers thus stop admitting on the same
//     replica, whose lock, table and wheel would otherwise move between
//     their cores. Candidates, the simulated fleet's path, draws both
//     probes from the router's seeded stream and stays deterministic.
//   - Autoscaler watches the fleet's aggregate headroom fraction and
//     the router's reject rate and adds or drains replicas with
//     hysteresis: scale-up is fast, scale-down is slow and goes
//     through a drain state that stops new placements while admitted
//     tasks depart.
//   - Cluster is the control plane tying them together: it owns the
//     replica set, publishes the active subset to the router
//     copy-on-write, and exports per-replica metrics under the
//     replica label.
//
// The simulated counterpart — a fleet of stage pipelines driven by
// one event loop — lives in internal/pipeline as ClusterPipeline.
package cluster
