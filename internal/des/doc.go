// Package des implements a deterministic discrete-event simulation engine.
//
// The calendar is a ladder queue — bucketed near-future rungs with
// occupancy bitmaps over a fully sorted drain list, with an unsorted
// far-future overflow — holding pooled, pointer-free event records
// addressed by generation-checked index handles. Scheduling, cancelling,
// and firing are all amortized O(1) (versus O(log n) for the binary heap
// it replaced) and the steady state allocates nothing when callers use the
// Timer dispatch path. A monotone sequence counter breaks ties: two events
// scheduled for the same instant fire in the order they were scheduled,
// which makes simulations reproducible bit-for-bit — the ladder preserves
// exactly the (time, seq) pop order of the original heap, a property pinned
// by a differential test against a reference heap. Events are cancellable
// in O(1) (lazily, at the drain point).
//
// Beside the calendar sit alarms: re-armable timers, each a Timer
// registered once with NewAlarm, with at most one pending instant. They
// carry the processes that never have more than one event outstanding —
// an arrival source's next arrival, a stage's running-job completion and
// budget watchdog — in a winner tree over a pointer-free key array:
// O(log k) to re-arm or disarm, O(1) to read the earliest. Arm draws its
// sequence number where AtTimer would, and a re-arm is a cancel plus a
// fresh schedule, so moving such a process from the calendar to an alarm
// leaves the fire order bit-identical; Step fires the earlier, by (time,
// seq), of the calendar's front and the earliest alarm. Steps counts
// alarm fires. An alarm lives as long as its simulator, so register one
// per long-lived process, not per event.
package des
