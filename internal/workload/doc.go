// Package workload generates the paper's evaluation workloads: Poisson
// streams of aperiodic pipeline tasks with exponential per-stage demands
// and uniform end-to-end deadlines (§4), periodic streams with jitter,
// and the TSCE Table 1 mission scenario (§5). The "task resolution"
// knob is the §4 ratio of mean deadline to mean total computation that
// Figs. 5 and 7 sweep. Recorded arrivals have one format, FRTRACE:
// TraceWriter records it, ImportCSV converts arrival-sorted CSV into
// it, TraceReader decodes its records in place from a read buffer sized
// from the trace header, and a Replayer plays it into a simulator.
package workload
