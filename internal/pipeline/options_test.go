package pipeline

import (
	"fmt"
	"strings"
	"testing"

	"feasregion/internal/adapt"
	"feasregion/internal/core"
	"feasregion/internal/degrade"
	"feasregion/internal/des"
	"feasregion/internal/priority"
)

// newPanic builds a pipeline and returns New's panic message, or "" when
// it constructs.
func newPanic(opts Options) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	New(des.New(), opts)
	return ""
}

// TestOptionMatrix crosses every option that extends the default
// controller with each other admission plane: New refuses the pairing
// and names the field, and accepts it on the default controller. It
// also pins New's remaining refusals (stage count, degradation beside
// the wait queue, the demand estimator without a guard).
func TestOptionMatrix(t *testing.T) {
	beta := &adapt.Config{DeadlineRef: 1, Beta: adapt.BetaConfig{Enabled: true}}
	controllerOnly := []struct {
		field string
		set   func(*Options)
	}{
		{"EnableShedding", func(o *Options) { o.EnableShedding = true }},
		{"EnableDegradation", func(o *Options) { o.EnableDegradation = true }},
		{"Governor", func(o *Options) { o.Governor = &degrade.Config{} }},
		{"OverrunPolicy", func(o *Options) { o.OverrunPolicy = core.OverrunEvict }},
		{"Adapt", func(o *Options) { o.Adapt = beta }},
	}
	planes := []struct {
		name string
		opts func() Options
	}{
		{"Admitter", func() Options {
			return Options{Stages: 2, Admitter: priority.NewAdmitter(2, priority.ModeOPA, nil, nil)}
		}},
		{"NoAdmission", func() Options { return Options{Stages: 2, NoAdmission: true} }},
	}
	for _, f := range controllerOnly {
		for _, pl := range planes {
			t.Run(f.field+"/"+pl.name, func(t *testing.T) {
				opts := pl.opts()
				f.set(&opts)
				if msg := newPanic(opts); !strings.Contains(msg, f.field) {
					t.Fatalf("New panicked with %q, want a refusal naming %s", msg, f.field)
				}
			})
		}
		t.Run(f.field+"/default", func(t *testing.T) {
			opts := Options{Stages: 2}
			f.set(&opts)
			if msg := newPanic(opts); msg != "" {
				t.Fatalf("New refused the default controller: %q", msg)
			}
		})
	}
	// Options the other planes ignore or share construct beside them.
	for _, pl := range planes {
		t.Run("compatible/"+pl.name, func(t *testing.T) {
			opts := pl.opts()
			region := core.NewRegion(2)
			opts.Region, opts.Reserved, opts.MaxWait = &region, []float64{0.1, 0.1}, 0.2
			opts.Estimator, opts.DisableIdleReset, opts.OverrunTolerance = core.ActualDemand, true, 0.5
			if msg := newPanic(opts); msg != "" {
				t.Fatalf("New refused a compatible pairing: %q", msg)
			}
		})
	}
	for _, tc := range []struct {
		name, want string
		opts       Options
	}{
		{"stages", "stage", Options{}},
		{"degradation+MaxWait", "MaxWait", Options{Stages: 1, MaxWait: 0.2, EnableDegradation: true}},
		{"governor+MaxWait", "MaxWait", Options{Stages: 1, MaxWait: 0.2, Governor: &degrade.Config{}}},
		{"demand-without-guard", "OverrunPolicy", Options{Stages: 2, Adapt: &adapt.Config{
			DeadlineRef: 1, Demand: adapt.DemandConfig{Enabled: true},
		}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if msg := newPanic(tc.opts); !strings.Contains(msg, tc.want) {
				t.Fatalf("New panicked with %q, want a refusal naming %s", msg, tc.want)
			}
		})
	}
}
