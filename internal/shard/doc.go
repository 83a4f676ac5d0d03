// Package shard is the wall-clock admission data plane behind
// internal/online: the feasible-region test Σ_j f(U_j) ≤ α(1 − Σ_j β_j)
// (Eq. 15) over per-stage synthetic utilization, with the bound
// optionally partitioned across K shards for near-linear multi-core
// admit throughput.
//
// Each shard keeps its contributions in a region state
// (tasktable.State, the same one core.Controller keeps: one row per
// admitted request, stamped with its absolute deadline, plus
// Kahan-compensated per-stage sums over the shard's share of the
// reserved floors) and runs its own hierarchical timer wheel
// (internal/expiry, unindexed). The state owns rows, sums and floors;
// the shard owns the clock, the wheel, the lock, the gate and the
// demand scaling. Released requests leave stale wheel entries that the
// purge discards lazily by matching (id, deadline) against the row's
// stamp. The state's arithmetic is oracle.Ledger's, so a K=1 controller's
// sums are bit-identical to a set of oracle.Ledgers fed the same
// operations.
//
// A purge is due only once it can flush something: each shard keeps
// the earliest time a wheel or staged entry can flush (the end of its
// 1 ms level-0 bucket, expiry.Wheel.NextFlush), and the locked admit,
// the gate and the steal probe all read that. Inside the bucket that
// holds the earliest deadline no purge runs and the gate may fire.
//
// At every K the first step is the lock-free overload gate. Under
// sustained overload, a rejecting exact test arms a snapshot of the
// global per-stage utilizations. Admits only grow utilization, so while
// no capacity has been freed (freedGen, bumped inside every freeing
// critical section) and no purge is due, the snapshot is a
// componentwise lower bound — a request that fails even against it is
// rejected without taking a lock. Past the gate, at K=1 (the default),
// admission is one exact region test under the shard's lock; the same
// critical section can hand back the post-admit region value, which a
// cluster replica publishes without a second lock round.
//
// At K>1 each shard owns per-stage utilization caps with
//
//	Σ_k caps_jk = Cap_j   and   Σ_j f(Cap_j) ≤ α·(1 − Σ_j β_j)
//
// where f is the paper's per-stage delay factor (Theorem 1), so a
// request that fits its home shard's caps pointwise provably fits the
// global region — the happy path charges one cache-line-padded shard
// under one uncontended lock and never touches shared state. Work
// conservation — every K admits exactly the requests the single exact
// test admits — comes from a two-step fallback:
//
//  1. Steal: on a local cap miss, the shard gathers headroom from up to
//     maxStealProbes peers (richest first by lock-free slack hints),
//     locking one shard at a time. The transfer is validated against
//     the cap-partition generation under the home lock; a lost race
//     abandons the gathered slack, which only under-counts capacity
//     until the next re-partition restores every cap from the true
//     utilizations.
//  2. Exact pass: all shard locks in order, a full purge, and the exact
//     Σ_j f(U_j + d_j) ≤ bound test. Only this path (and the gate it
//     arms) can reject; on admit it commits to the home shard and
//     re-partitions so the slack it exposed is spread back out.
//
// A slow rebalance (Reconcile, piggybacked on the embedding watchdog
// tick) re-centers caps toward the shards with the most release traffic.
//
// Quality-aware admission (imprecise computation) routes through the
// same steps: the gate probes mandatory-only demand, the local and
// steal paths only admit at the caller's level cap, and every degraded
// binary-search outcome runs in the exact test — keeping per-request
// decisions identical at every K.
package shard
