package workload

import (
	"bytes"
	"math"
	"testing"
)

func testScenario() *Scenario {
	return &Scenario{
		Stages:     2,
		MeanDemand: 1,
		Curve: []RatePoint{
			{At: 0, Rate: 0.2},
			{At: 100, Rate: 0.5},
			{At: 200, Rate: 0.1},
		},
		Cohorts: []Cohort{
			{Name: "gold", Share: 0.3, DemandScale: 1.5, Resolution: 50},
			{Name: "bronze", Share: 0.7, DemandScale: 0.8, Resolution: 120},
		},
		Crowds:  []FlashCrowd{{Start: 40, Duration: 20, Multiplier: 1.5}},
		Horizon: 250,
		Seed:    7,
	}
}

func TestScenarioValidate(t *testing.T) {
	if err := testScenario().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	breakIt := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"no stages", func(s *Scenario) { s.Stages = 0 }},
		{"no curve", func(s *Scenario) { s.Curve = nil }},
		{"curve not increasing", func(s *Scenario) { s.Curve[1].At = 0 }},
		{"negative rate", func(s *Scenario) { s.Curve[0].Rate = -1 }},
		{"no cohorts", func(s *Scenario) { s.Cohorts = nil }},
		{"shares not 1", func(s *Scenario) { s.Cohorts[0].Share = 0.5 }},
		{"duplicate cohort", func(s *Scenario) { s.Cohorts[1].Name = "gold" }},
		{"unnamed cohort", func(s *Scenario) { s.Cohorts[0].Name = "" }},
		{"bad spread", func(s *Scenario) { s.Cohorts[0].DeadlineSpread = 1 }},
		{"no horizon", func(s *Scenario) { s.Horizon = 0 }},
		{"zero-duration crowd", func(s *Scenario) { s.Crowds[0].Duration = 0 }},
		{"bad stage scale", func(s *Scenario) { s.StageScale = []float64{1} }},
	}
	for _, tc := range breakIt {
		sc := testScenario()
		tc.mut(sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestScenarioFeasibilityCheck(t *testing.T) {
	sc := testScenario()
	// Peak effective rate is 1.5× the curve at the crowd window; push the
	// base rate up until ρ crosses 1 at the peak.
	sc.Curve = []RatePoint{{At: 0, Rate: 1.2}}
	if err := sc.Validate(); err == nil {
		t.Fatal("overloaded scenario must fail validation")
	}
	sc.AllowOverload = true
	if err := sc.Validate(); err != nil {
		t.Fatalf("AllowOverload must bypass feasibility: %v", err)
	}
	load, _ := sc.PeakLoad()
	if load <= 1 {
		t.Fatalf("peak load %v, expected > 1", load)
	}
}

func TestScenarioRate(t *testing.T) {
	sc := testScenario()
	if got := sc.Rate(0); got != 0.2 {
		t.Fatalf("Rate(0) = %v", got)
	}
	if got := sc.Rate(50); math.Abs(got-0.35*1.5) > 1e-12 {
		t.Fatalf("Rate(50) = %v, want crowd-scaled midpoint %v", got, 0.35*1.5)
	}
	if got := sc.Rate(300); got != 0.1 {
		t.Fatalf("Rate(300) = %v, want last curve level", got)
	}
	// The peak sits just inside the crowd's end (t→60⁻): base
	// 0.2+0.6·0.3 = 0.38 scaled by 1.5 beats the curve's own 0.5 peak.
	if got := sc.MaxRate(); math.Abs(got-0.38*1.5) > 1e-9 {
		t.Fatalf("MaxRate = %v, want %v (crowd end boundary)", got, 0.38*1.5)
	}
}

func TestScenarioRecordTraceDeterministic(t *testing.T) {
	sc := testScenario()
	var a, b bytes.Buffer
	na, err := sc.RecordTrace(&a)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := sc.RecordTrace(&b)
	if err != nil {
		t.Fatal(err)
	}
	if na != nb || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same seed produced different traces (%d vs %d records)", na, nb)
	}
	if na == 0 {
		t.Fatal("scenario produced no arrivals")
	}
	sc.Seed = 8
	var c bytes.Buffer
	if _, err := sc.RecordTrace(&c); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestScenarioCohortMix(t *testing.T) {
	sc := testScenario()
	sc.Horizon = 20000
	sc.Curve = []RatePoint{{At: 0, Rate: 0.4}}
	sc.Crowds = nil
	var buf bytes.Buffer
	n, err := sc.RecordTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := OpenTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]uint64, len(sc.Cohorts))
	var rec TraceRecord
	for tr.Next(&rec) == nil {
		counts[rec.Class]++
	}
	gold := float64(counts[0]) / float64(n)
	if math.Abs(gold-0.3) > 0.02 {
		t.Fatalf("gold share %v, want ≈0.3 over %d arrivals", gold, n)
	}
}

func TestScenarioArrivalsTrackCurve(t *testing.T) {
	// A 10× rate step should yield ≈10× the arrivals in equal windows.
	sc := &Scenario{
		Stages:     1,
		MeanDemand: 0.5,
		Curve:      []RatePoint{{At: 0, Rate: 0.1}, {At: 1000, Rate: 0.1}, {At: 1000.001, Rate: 1.0}},
		Cohorts:    []Cohort{{Name: "all", Share: 1, DemandScale: 1, Resolution: 100}},
		Horizon:    2000,
		Seed:       3,
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sc.RecordTrace(&buf); err != nil {
		t.Fatal(err)
	}
	tr, _ := OpenTrace(bytes.NewReader(buf.Bytes()))
	var lo, hi int
	var rec TraceRecord
	for tr.Next(&rec) == nil {
		if rec.Arrival < 1000 {
			lo++
		} else {
			hi++
		}
	}
	ratio := float64(hi) / float64(lo)
	if ratio < 7 || ratio > 13 {
		t.Fatalf("arrival ratio across rate step = %v (lo %d, hi %d), want ≈10", ratio, lo, hi)
	}
}
