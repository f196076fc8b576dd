package main

import (
	"math"
	"strings"
	"testing"

	"trustgrid/internal/api"
	"trustgrid/internal/grid"
	"trustgrid/internal/metrics"
)

// handRun is a 3-job, 2-site run worked out by hand (Δ = 100, λ = 3,
// f = 0.5):
//
//	site 0: speed 10, SL 0.9      site 1: speed 20, SL 0.5
//	job 1: workload 1000, SD 0.6, arrives 10
//	job 2: workload 2000, SD 0.7, arrives 20
//	job 3: workload  500, SD 0.8, arrives 30, depends on job 1
//
// Round 100 places job 1 on site 0 [100, 200] and job 2 on site 1
// [100, 200] — risky, P(fail) = 1 − e^(−0.6) ≈ 0.45 ≤ f — which fails
// at 150. Job 1 completes at 200 and releases job 3. Round 200 places
// job 3 on site 0 [200, 250] and the retried job 2, which must now run
// strictly safely, on site 0 [250, 450].
//
// Summary: makespan 450; responses 190, 220, 430 (mean 280); services
// 100, 50, 200 (mean 350/3); slowdown 280 / (350/3) = 2.4; one job took
// risk and one failed.
func handRun() CheckInput {
	sites := []*grid.Site{
		{ID: 0, Speed: 10, Nodes: 1, SecurityLevel: 0.9},
		{ID: 1, Speed: 20, Nodes: 1, SecurityLevel: 0.5},
	}
	jobs := map[int]JobInfo{
		1: {Tenant: "t", Arrival: 10, Workload: 1000, SD: 0.6},
		2: {Tenant: "t", Arrival: 20, Workload: 2000, SD: 0.7},
		3: {Tenant: "t", Arrival: 30, Workload: 500, SD: 0.8, Deps: []int{1}},
	}
	events := []api.Event{
		{Kind: "arrived", Time: 10, Job: 1, Site: -1, Tenant: "t", Arrival: 10, Workload: 1000, SD: 0.6},
		{Kind: "arrived", Time: 20, Job: 2, Site: -1, Tenant: "t", Arrival: 20, Workload: 2000, SD: 0.7},
		{Kind: "arrived", Time: 30, Job: 3, Site: -1, Tenant: "t", Arrival: 30, Workload: 500, SD: 0.8},
		{Kind: "placed", Time: 100, Job: 1, Site: 0, Tenant: "t", Start: 100, Finish: 200},
		{Kind: "placed", Time: 100, Job: 2, Site: 1, Tenant: "t", Start: 100, Finish: 200, Risky: true},
		{Kind: "failed", Time: 150, Job: 2, Site: 1, Tenant: "t"},
		{Kind: "completed", Time: 200, Job: 1, Site: 0, Tenant: "t", Start: 100, Finish: 200},
		{Kind: "job_ready", Time: 200, Job: 3, Site: -1, Tenant: "t"},
		{Kind: "placed", Time: 200, Job: 3, Site: 0, Tenant: "t", Start: 200, Finish: 250},
		{Kind: "placed", Time: 200, Job: 2, Site: 0, Tenant: "t", Start: 250, Finish: 450},
		{Kind: "completed", Time: 250, Job: 3, Site: 0, Tenant: "t", Start: 200, Finish: 250},
		{Kind: "completed", Time: 450, Job: 2, Site: 0, Tenant: "t", Start: 250, Finish: 450},
	}
	renumber(events)
	return CheckInput{
		Sites: sites, Jobs: jobs, Accepted: []int{1, 2, 3},
		Delta: 100, Budget: 2, Lambda: 3, F: 0.5,
		Events: events,
		Summary: metrics.Summary{
			Jobs: 3, Makespan: 450, AvgResponse: 280, AvgService: 350.0 / 3,
			Slowdown: 2.4, NRisk: 1, NFail: 1,
		},
	}
}

func renumber(evs []api.Event) {
	for i := range evs {
		evs[i].Seq = int64(i)
	}
}

func TestCheckerAcceptsHandBuiltRun(t *testing.T) {
	bad, sum := check(handRun())
	if len(bad) != 0 {
		t.Fatalf("clean run rejected: %v", bad)
	}
	want := metrics.Summary{Jobs: 3, Makespan: 450, AvgResponse: 280, AvgService: 350.0 / 3, Slowdown: 2.4, NRisk: 1, NFail: 1}
	if sum.Jobs != want.Jobs || sum.Makespan != want.Makespan || sum.NRisk != want.NRisk || sum.NFail != want.NFail ||
		math.Abs(sum.AvgResponse-want.AvgResponse) > 1e-9 || math.Abs(sum.AvgService-want.AvgService) > 1e-9 ||
		math.Abs(sum.Slowdown-want.Slowdown) > 1e-9 {
		t.Fatalf("recomputed summary %+v, want %+v", sum, want)
	}
}

func TestCheckerRejectsCorruptedRuns(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(in *CheckInput)
		want    string
	}{
		{"overlapping site", func(in *CheckInput) {
			// The retried job 2 starts while job 3 still holds site 0.
			in.Events[9].Start, in.Events[9].Finish = 240, 440
			in.Events[11].Start, in.Events[11].Finish, in.Events[11].Time = 240, 440, 440
		}, "runs two attempts at once"},
		{"failed attempt holds its site", func(in *CheckInput) {
			// Job 1 moves to site 1 while job 2's failing attempt holds
			// it until 150 (its planned finish, 200, is not what counts).
			in.Events[3].Site, in.Events[3].Start, in.Events[3].Finish = 1, 140, 190
			in.Events[6].Site, in.Events[6].Start, in.Events[6].Finish, in.Events[6].Time = 1, 140, 190, 190
		}, "runs two attempts at once"},
		{"wrong exec time", func(in *CheckInput) {
			in.Events[3].Finish = 210
			in.Events[6].Finish, in.Events[6].Time = 210, 210
		}, "workload/speed"},
		{"placed before job_ready", func(in *CheckInput) {
			in.Events[7], in.Events[8] = in.Events[8], in.Events[7]
			renumber(in.Events)
		}, "before its job_ready"},
		{"starts before parent completes", func(in *CheckInput) {
			in.Jobs[3] = JobInfo{Tenant: "t", Arrival: 30, Workload: 500, SD: 0.8, Deps: []int{2}}
		}, "before parent 2 completed"},
		{"summary off by one job", func(in *CheckInput) { in.Summary.Jobs = 4 }, "summary counts"},
		{"risky flag wrong", func(in *CheckInput) { in.Events[4].Risky = false }, "risky=false"},
		{"secure-only job took risk", func(in *CheckInput) {
			j := in.Jobs[2]
			j.SafeOnly = true
			in.Jobs[2] = j
		}, "secure-only job 2 placed risky"},
		{"job never completes", func(in *CheckInput) {
			in.Events = in.Events[:11]
		}, "completed 0 times"},
		{"round over budget", func(in *CheckInput) { in.Budget = 1 }, "budget is 1"},
		{"start before round", func(in *CheckInput) {
			in.Events[8].Start, in.Events[8].Finish = 199, 249
			in.Events[10].Start, in.Events[10].Finish, in.Events[10].Time = 199, 249, 249
		}, "before its arrival"},
		{"gap in the stream", func(in *CheckInput) {
			in.Events = append(in.Events[:5], in.Events[6:]...)
		}, "gap"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := handRun()
			c.corrupt(&in)
			bad, _ := check(in)
			if !strings.Contains(strings.Join(bad, "\n"), c.want) {
				t.Fatalf("want a violation mentioning %q, got %v", c.want, bad)
			}
		})
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
