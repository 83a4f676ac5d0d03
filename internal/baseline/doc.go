// Package baseline implements the comparator the paper positions itself
// against: the traditional pipeline-analysis approach of splitting the
// end-to-end deadline into per-stage intermediate deadlines, plus the
// no-admission baseline implied by §4.
package baseline
