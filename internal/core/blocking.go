package core

// CriticalSection describes one critical section a task executes at a
// stage: which stage-local lock it takes and for how long.
type CriticalSection struct {
	Stage    int
	Lock     int
	Duration float64
}

// BlockingTaskInfo is the static description of one task used by the
// blocking analysis: its priority, relative deadline, and the critical
// sections it may execute.
type BlockingTaskInfo struct {
	Priority float64
	Deadline float64
	Sections []CriticalSection
}

// Betas computes the per-stage normalized blocking terms β_j =
// max_i B_ij/D_i of Eq. 15 for a static task set under the priority
// ceiling protocol: B_ij is the longest critical section of any task with
// lower priority than i, at stage j, on a lock whose priority ceiling is
// equal to or more urgent than i's priority (only such sections can block
// i under PCP, and at most one of them does).
func Betas(stages int, tasks []BlockingTaskInfo) []float64 {
	// Ceilings per (stage, lock): the most urgent (numerically smallest)
	// priority among users.
	type stageLock struct{ stage, lock int }
	ceilings := map[stageLock]float64{}
	for _, ti := range tasks {
		for _, cs := range ti.Sections {
			key := stageLock{cs.Stage, cs.Lock}
			if c, ok := ceilings[key]; !ok || ti.Priority < c {
				ceilings[key] = ti.Priority
			}
		}
	}

	betas := make([]float64, stages)
	for _, hi := range tasks {
		if hi.Deadline <= 0 {
			continue
		}
		for j := 0; j < stages; j++ {
			b := 0.0 // worst single blocking of task hi at stage j
			for _, lo := range tasks {
				if lo.Priority <= hi.Priority {
					continue // only lower-priority tasks block
				}
				for _, cs := range lo.Sections {
					if cs.Stage != j {
						continue
					}
					if ceilings[stageLock{j, cs.Lock}] > hi.Priority {
						continue // ceiling less urgent than hi: cannot block it
					}
					if cs.Duration > b {
						b = cs.Duration
					}
				}
			}
			if norm := b / hi.Deadline; norm > betas[j] {
				betas[j] = norm
			}
		}
	}
	return betas
}
