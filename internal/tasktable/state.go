package tasktable

import "fmt"

// State is one admission plane's region state: the task table, one
// Kahan-compensated sum per stage, and the stages' reserved floors. The
// embedded Table answers lookups (Lookup, Stamp, Level, Contrib,
// Present, Live, Charging) and takes departures (MarkDeparted); every
// change to a contribution goes through State's own methods, which keep
// the sums in step. The owner serializes access. Create it with
// NewState.
type State struct {
	stages []stageSum
	Table
}

// stageSum is one stage's reserved floor and Kahan sum, kept side by
// side so a utilization read touches one slice element.
type stageSum struct {
	floor float64
	sum   kahan
}

// NewState returns an empty state for the given number of stages.
// floors, when non-nil, holds one reserved floor per stage (the owner
// validates the values).
func NewState(stages int, floors []float64) State {
	if floors != nil && len(floors) != stages {
		panic(fmt.Sprintf("tasktable: %d floors for %d stages", len(floors), stages))
	}
	s := State{
		stages: make([]stageSum, stages),
		Table:  newTable(stages),
	}
	for j, f := range floors {
		s.stages[j].floor = f
	}
	return s
}

// SignedKey maps a signed task ID to a table key. Flipping the sign bit
// keeps the order, so the idle reset drains in ascending signed-ID order
// (oracle.Ledger's).
func SignedKey(id int64) uint64 { return uint64(id) ^ 1<<63 }

// Util returns stage j's synthetic utilization: its floor plus the sum
// of the contributions charging it, never below the floor.
func (s *State) Util(j int) float64 {
	st := &s.stages[j]
	u := st.floor + st.sum.v
	if u < st.floor {
		return st.floor
	}
	return u
}

// Floor returns stage j's reserved floor.
func (s *State) Floor(j int) float64 { return s.stages[j].floor }

// SetFloor replaces stage j's reserved floor; charged contributions are
// untouched.
func (s *State) SetFloor(j int, v float64) { s.stages[j].floor = v }

// Insert claims id's row under stamp and level and charges stage j with
// d[j], one entry per stage. It returns the row's slot. A fully-cleared
// row for id is recycled in place; inserting an id whose row still
// charges a stage panics.
func (s *State) Insert(id uint64, stamp int64, level uint8, d []float64) int {
	slot := s.insert(id, stamp, level)
	for j, v := range d {
		s.setContrib(slot, j, v)
		s.stages[j].sum.add(v)
	}
	return slot
}

// Drop credits back every stage the row still charges, then deletes the
// row (other rows may move).
func (s *State) Drop(slot int) {
	for j := range s.stages {
		if s.Present(slot, j) {
			s.stages[j].sum.sub(s.Contrib(slot, j), s.dropStage(slot, j))
		}
	}
	s.deleteRow(slot)
}

// Recharge replaces the row's contribution at stage j (which must be
// Present) with v, charging the stage the difference.
func (s *State) Recharge(slot, j int, v float64) {
	old := s.Contrib(slot, j)
	s.setContrib(slot, j, v)
	s.stages[j].sum.add(v - old)
}

// ClearStage removes the row's charge at stage j (which must be
// Present) and keeps the row, as an idle reset does: a contribution
// with its own per-stage deadline ends there.
func (s *State) ClearStage(slot, j int) { s.clearStage(slot, j, &s.stages[j].sum) }

// ResetIdle performs stage j's idle reset: every row flagged departed
// there stops charging it, subtracted in ascending-ID order. It returns
// how many rows it cleared.
func (s *State) ResetIdle(j int) int { return s.resetIdle(j, &s.stages[j].sum) }

// kahan is one stage's Kahan-compensated running sum of contributions,
// with oracle.Ledger's arithmetic: millions of add/subtract pairs do not
// drift it, and a fixed operation order gives bit-identical results.
type kahan struct{ v, comp float64 }

// add accumulates x.
func (s *kahan) add(x float64) {
	y := x - s.comp
	t := s.v + y
	s.comp = (t - s.v) - y
	s.v = t
}

// sub removes x; left is how many rows still charge the stage. At 0 the
// sum is rebaselined to exactly 0, killing residual floating error
// before the stage's next busy period.
func (s *kahan) sub(x float64, left int) {
	s.add(-x)
	if left == 0 {
		*s = kahan{}
	}
}
