package tasktable

import (
	"fmt"
	"math"
)

// State is one admission plane's region state: the task table, one
// exact sum per stage, and the stages' reserved floors. The embedded
// Table answers lookups (Lookup, Stamp, Level); every change to a
// contribution goes through State's own methods, which keep the sums
// in step. The owner serializes access. Create it with NewState.
//
// A contribution v is charged rounded up to a whole number of quanta of
// 2^-40 (v capped at maxContrib = 4096), and each stage sums its charges
// exactly (qsum): no add or subtract rounds, so the order of operations
// cannot move a sum. A stage's utilization (Util; Utils reads them all
// as one slice, the point a region test evaluates) is floor + sum,
// recomputed whenever either moves: it rounds when it adds the floor
// (and, past maxContrib, once before). The charged point is never below
// the true one: a stage is over-charged by less than 2^-40 per row.
//
// A row's tag at stage j records where it stands against the stage's
// epoch e, which every clearing idle reset bumps:
//
//	tag 0          charging, not departed
//	0 < tag ≤ e    cleared (by an idle reset or ClearStage)
//	tag e+1        departed: charging until the stage's next reset
//
// MarkDeparted stamps e+1 and adds the row's charge to the stage's
// pending total. ResetIdle subtracts that total and bumps e, which
// clears every pending row without touching it; Present, Live and
// Contrib read the tags against the epochs. Tags and epochs are 64
// bits, so an epoch never wraps: it would take 2^64 resets of a stage.
type State struct {
	stage []stageSum
	util  []float64 // stage j's floor + sum, refreshed on every change to either
	Table
}

// stageSum is one stage's reserved floor, sums and reset bookkeeping,
// kept side by side so a utilization read touches one slice element.
type stageSum struct {
	floor    float64
	sum      qsum   // charges of the rows charging the stage
	pending  qsum   // charges of the rows departed since the last reset
	npending int    // rows departed since the last reset
	nlive    int    // rows charging the stage
	epoch    uint64 // ≥ 1; cleared tags are ≤ epoch
}

// maxContrib is the largest contribution a stage is charged; a larger
// one, +Inf included, is charged as maxContrib. It sits far above
// U = 1, where the stage delay factor is already +Inf, so a capped
// charge still saturates the stage, and it is the largest charge a
// qsum adds without rounding.
const maxContrib = 1 << 12

// charge returns what v charges a stage: min(v, maxContrib) rounded up
// to a whole number of quanta of 2^-40. Owners reject malformed
// demands, so a negative or NaN contribution is a bug.
func charge(v float64) float64 {
	x := v * 0x1p40 // in quanta; exact: a power-of-two scale (+Inf past MaxFloat64/2^40)
	if math.Float64bits(x) > math.Float64bits(maxContrib*0x1p40) {
		x = capQuanta(x) // negatives, -0 and NaN sort high as bits too
	}
	return math.Ceil(x) * 0x1p-40 // exact: a whole number ≤ 2^52, scaled
}

// capQuanta is charge's slow path.
func capQuanta(x float64) float64 {
	if !(x >= 0) {
		panic("tasktable: negative or NaN contribution")
	}
	return min(x, maxContrib*0x1p40)
}

// NewState returns an empty state for the given number of stages.
// floors, when non-nil, holds one reserved floor per stage (the owner
// validates the values).
func NewState(stages int, floors []float64) State {
	if floors != nil && len(floors) != stages {
		panic(fmt.Sprintf("tasktable: %d floors for %d stages", len(floors), stages))
	}
	s := State{
		stage: make([]stageSum, stages),
		util:  make([]float64, stages),
		Table: newTable(stages),
	}
	for j := range s.stage {
		s.stage[j].epoch = 1
	}
	for j, f := range floors {
		s.SetFloor(j, f)
	}
	return s
}

// Util returns stage j's synthetic utilization: its floor plus the
// charges of the rows charging it.
func (s *State) Util(j int) float64 { return s.util[j] }

// Utils returns every stage's utilization, one entry per stage, without
// copying: the caller must not write it, and it changes with the state.
func (s *State) Utils() []float64 { return s.util }

// refresh recomputes stage j's utilization after its floor or sum moved.
func (s *State) refresh(j int) {
	st := &s.stage[j]
	s.util[j] = st.floor + st.sum.float()
}

// Floor returns stage j's reserved floor.
func (s *State) Floor(j int) float64 { return s.stage[j].floor }

// SetFloor replaces stage j's reserved floor; charged contributions are
// untouched.
func (s *State) SetFloor(j int, v float64) {
	s.stage[j].floor = v
	s.refresh(j)
}

// Charging returns how many rows still charge stage j.
func (s *State) Charging(j int) int { return s.stage[j].nlive }

// Present reports whether the row still charges stage j (not cleared
// by an idle reset or ClearStage).
func (s *State) Present(slot, j int) bool {
	return s.tags[s.at(slot, j)]-1 >= s.stage[j].epoch // tag 0 wraps high
}

// Live reports whether the row still charges at least one stage.
func (s *State) Live(slot int) bool {
	for j := range s.stage {
		if s.Present(slot, j) {
			return true
		}
	}
	return false
}

// Contrib returns the contribution the row was charged at stage j, or
// 0 once the stage is cleared.
func (s *State) Contrib(slot, j int) float64 {
	if !s.Present(slot, j) {
		return 0
	}
	return s.contribs[s.at(slot, j)]
}

// Insert claims id's row under stamp and level and charges stage j with
// d[j], one entry per stage. It returns the row's slot. A fully-cleared
// row for id is recycled in place; inserting an id whose row still
// charges a stage panics.
func (s *State) Insert(id uint64, stamp int64, level uint8, d []float64) int {
	slot, found := s.insert(id)
	if found && s.Live(slot) {
		panic(fmt.Sprintf("tasktable: id %d inserted twice", id))
	}
	s.stamps[slot] = stamp
	s.levels[slot] = level
	row := s.at(slot, 0)
	contribs, tags, stage := s.contribs[row:row+len(d)], s.tags[row:row+len(d)], s.stage[:len(d)]
	for j, v := range d {
		contribs[j] = v
		tags[j] = 0
		stage[j].sum.add(charge(v))
		stage[j].nlive++
		s.refresh(j)
	}
	return slot
}

// Drop credits back every stage the row still charges, then deletes the
// row (other rows may move). It reports whether the row charged any
// stage.
func (s *State) Drop(slot int) (charged bool) {
	for j := range s.stage {
		if s.Present(slot, j) {
			s.uncharge(slot, j)
			charged = true
		}
	}
	s.deleteRow(slot)
	return charged
}

// uncharge removes the row's charge at stage j, which must be Present.
func (s *State) uncharge(slot, j int) {
	i := s.at(slot, j)
	st := &s.stage[j]
	q := charge(s.contribs[i])
	st.sum.sub(q)
	s.refresh(j)
	st.nlive--
	if s.tags[i] != 0 { // departed, pending the next reset
		st.pending.sub(q)
		st.npending--
	}
}

// Recharge replaces the row's contribution at stage j (which must be
// Present) with v, charging the stage the difference.
func (s *State) Recharge(slot, j int, v float64) {
	i := s.at(slot, j)
	st := &s.stage[j]
	old, q := charge(s.contribs[i]), charge(v)
	s.contribs[i] = v
	st.sum.sub(old)
	st.sum.add(q)
	s.refresh(j)
	if s.tags[i] != 0 {
		st.pending.sub(old)
		st.pending.add(q)
	}
}

// ClearStage removes the row's charge at stage j (which must be
// Present) and keeps the row, as an idle reset does: a contribution
// with its own per-stage deadline ends there.
func (s *State) ClearStage(slot, j int) {
	s.uncharge(slot, j)
	s.tags[s.at(slot, j)] = 1 // ≤ every epoch
}

// MarkDeparted flags the row as departed at stage j: it charges the
// stage until the stage's next idle reset. It does nothing to a row
// already departed or cleared there.
func (s *State) MarkDeparted(slot, j int) {
	i := s.at(slot, j)
	if s.tags[i] != 0 {
		return
	}
	st := &s.stage[j]
	s.tags[i] = st.epoch + 1
	st.npending++
	st.pending.add(charge(s.contribs[i]))
}

// ResetIdle performs stage j's idle reset: every row departed there
// since the last reset stops charging it. It touches no row and returns
// how many it cleared.
func (s *State) ResetIdle(j int) int {
	st := &s.stage[j]
	n := st.npending
	if n == 0 {
		return 0
	}
	st.sum.subSum(st.pending)
	s.refresh(j)
	st.nlive -= n
	st.pending, st.npending = qsum{}, 0
	st.epoch++
	return n
}

// qsum is an exact sum of charges, hi + lo. lo is a multiple of 2^-40
// in [0, maxContrib): below 2^13, float64 holds every such multiple, so
// adding a charge (at most maxContrib) never rounds, and a carry moves
// maxContrib into hi, a whole multiple of maxContrib. Each row adds at
// most one carry, so hi is at most maxContrib times the rows charging
// the stage, far below where float64 stops holding such multiples
// (2^65).
type qsum struct {
	lo float64
	hi float64
}

func (a *qsum) add(q float64) {
	if a.lo += q; a.lo >= maxContrib {
		a.lo -= maxContrib
		a.hi += maxContrib
	}
}

func (a *qsum) sub(q float64) {
	if a.lo -= q; a.lo < 0 {
		a.lo += maxContrib
		a.hi -= maxContrib
	}
}

// subSum subtracts x, a part of a.
func (a *qsum) subSum(x qsum) {
	a.hi -= x.hi
	a.sub(x.lo)
}

// float returns the sum rounded to the nearest float64, ties to even:
// below maxContrib hi is 0 and the sum is lo, exactly; above, adding lo
// to hi rounds once.
func (a qsum) float() float64 { return a.hi + a.lo }
