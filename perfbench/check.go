package main

import (
	"fmt"
	"math"
	"sort"

	"trustgrid/internal/api"
	"trustgrid/internal/grid"
	"trustgrid/internal/metrics"
)

// CheckInput is one episode's output plus everything the checker needs
// to judge it. Nothing here comes from the daemon except Events and
// Summary: the platform, the specs and the policy parameters are the
// benchmark's own copies.
type CheckInput struct {
	Sites []*grid.Site
	Jobs  map[int]JobInfo
	// Accepted lists the IDs the daemon acknowledged.
	Accepted []int
	Delta    float64
	// Budget caps the placements of one Δ-round (0 = no cap). It is
	// checked per round time, so it applies to single-shard runs.
	Budget    int
	Lambda, F float64
	Events    []api.Event
	Summary   metrics.Summary
}

// attempt is one execution attempt: the site it holds and for how long.
type attempt struct {
	site       int
	start, end float64
}

// jobTrace is the checker's per-job state machine.
type jobTrace struct {
	arrived, ready      bool
	arrival             float64
	open                *attempt
	planned             float64 // planned finish of the open attempt
	openRisky           bool
	failed, risky, fell bool
	completions         int
	completion          float64
}

// failProb is Eq. 1: the chance that demand sd fails on level sl.
func failProb(lambda, sd, sl float64) float64 {
	if sd <= sl {
		return 0
	}
	return 1 - math.Exp(-lambda*(sd-sl))
}

// closeTo compares recomputed sums, whose fold order may differ from
// the daemon's, to within rounding.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// check judges one episode's event stream and drain summary and
// returns every violation found (none means the output is correct), with
// the summary recomputed from the events.
func check(in CheckInput) ([]string, metrics.Summary) {
	var bad []string
	fail := func(format string, args ...any) {
		if len(bad) < 20 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	accepted := make(map[int]bool, len(in.Accepted))
	for _, id := range in.Accepted {
		accepted[id] = true
	}
	jobs := make(map[int]*jobTrace, len(in.Accepted))
	held := make([][]attempt, len(in.Sites))
	perRound := make(map[float64]int)
	var sum metrics.Summary
	var respSum, servSum float64

	for i, ev := range in.Events {
		if ev.Seq != int64(i) {
			fail("event %d has seq %d: the stream has a gap", i, ev.Seq)
			break
		}
		spec, known := in.Jobs[ev.Job]
		if !known || !accepted[ev.Job] {
			fail("seq %d: %s event for job %d, which was never accepted", ev.Seq, ev.Kind, ev.Job)
			continue
		}
		jt := jobs[ev.Job]
		if jt == nil {
			jt = &jobTrace{}
			jobs[ev.Job] = jt
		}
		if ev.Kind != "arrived" && !jt.arrived {
			fail("seq %d: %s event for job %d before its arrival", ev.Seq, ev.Kind, ev.Job)
			continue
		}
		switch ev.Kind {
		case "arrived":
			if jt.arrived {
				fail("seq %d: job %d arrived twice", ev.Seq, ev.Job)
			}
			jt.arrived, jt.arrival = true, ev.Arrival
			if ev.Arrival < spec.Arrival {
				fail("seq %d: job %d arrival %v precedes its stamp %v", ev.Seq, ev.Job, ev.Arrival, spec.Arrival)
			}
			if ev.Workload != spec.Workload || ev.SD != spec.SD || ev.SafeOnly != spec.SafeOnly || ev.Tenant != spec.Tenant {
				fail("seq %d: job %d arrived with a spec other than the one submitted", ev.Seq, ev.Job)
			}
		case "job_ready":
			if len(spec.Deps) == 0 || jt.ready {
				fail("seq %d: unexpected job_ready for job %d", ev.Seq, ev.Job)
			}
			last := 0.0
			for _, d := range spec.Deps {
				p := jobs[d]
				if p == nil || p.completions == 0 {
					fail("seq %d: job %d ready before parent %d completed", ev.Seq, ev.Job, d)
					continue
				}
				last = math.Max(last, p.completion)
			}
			if ev.Time != last {
				fail("seq %d: job %d ready at %v, its last parent completed at %v", ev.Seq, ev.Job, ev.Time, last)
			}
			jt.ready = true
		case "placed":
			if ev.Site < 0 || ev.Site >= len(in.Sites) {
				fail("seq %d: job %d placed on unknown site %d", ev.Seq, ev.Job, ev.Site)
				continue
			}
			site := in.Sites[ev.Site]
			if jt.open != nil {
				fail("seq %d: job %d placed while an attempt is still running", ev.Seq, ev.Job)
			}
			if len(spec.Deps) > 0 {
				if !jt.ready {
					fail("seq %d: job %d placed before its job_ready event", ev.Seq, ev.Job)
				}
				for _, d := range spec.Deps {
					if p := jobs[d]; p == nil || p.completions == 0 || ev.Start < p.completion {
						fail("seq %d: job %d starts at %v before parent %d completed", ev.Seq, ev.Job, ev.Start, d)
					}
				}
			}
			if exec := spec.Workload / site.Speed; !closeTo(ev.Finish-ev.Start, exec) {
				fail("seq %d: job %d runs %v on site %d, workload/speed is %v", ev.Seq, ev.Job, ev.Finish-ev.Start, ev.Site, exec)
			}
			if k := ev.Time / in.Delta; k != math.Trunc(k) {
				fail("seq %d: job %d placed at %v, off the Δ-round grid", ev.Seq, ev.Job, ev.Time)
			}
			if ev.Start < jt.arrival || ev.Start < ev.Time {
				fail("seq %d: job %d starts at %v, before its arrival %v or round %v", ev.Seq, ev.Job, ev.Start, jt.arrival, ev.Time)
			}
			sl := site.SecurityLevel
			if ev.Risky != (spec.SD > sl) {
				fail("seq %d: job %d risky=%v but SD %v vs SL %v", ev.Seq, ev.Job, ev.Risky, spec.SD, sl)
			}
			if ev.Risky && spec.SafeOnly {
				fail("seq %d: secure-only job %d placed risky", ev.Seq, ev.Job)
			}
			if jt.failed && !(sl > spec.SD) {
				fail("seq %d: job %d failed before but was placed on site %d with SL %v <= SD %v", ev.Seq, ev.Job, ev.Site, sl, spec.SD)
			}
			if !ev.FellBack && failProb(in.Lambda, spec.SD, sl) > in.F {
				fail("seq %d: job %d placed with failure probability %v > f=%v", ev.Seq, ev.Job, failProb(in.Lambda, spec.SD, sl), in.F)
			}
			jt.open = &attempt{site: ev.Site, start: ev.Start}
			jt.planned, jt.openRisky = ev.Finish, ev.Risky
			jt.risky = jt.risky || ev.Risky
			jt.fell = jt.fell || ev.FellBack
			perRound[ev.Time]++
		case "failed", "completed":
			a := jt.open
			if a == nil || a.site != ev.Site {
				fail("seq %d: job %d %s on site %d without a running attempt there", ev.Seq, ev.Job, ev.Kind, ev.Site)
				continue
			}
			jt.open = nil
			if ev.Kind == "failed" {
				if !jt.openRisky || ev.Time < a.start || ev.Time > jt.planned {
					fail("seq %d: job %d failed at %v outside its risky attempt [%v, %v]", ev.Seq, ev.Job, ev.Time, a.start, jt.planned)
				}
				jt.failed = true
				a.end = ev.Time
				held[a.site] = append(held[a.site], *a)
				continue
			}
			if ev.Start != a.start || ev.Finish != jt.planned || ev.Time != ev.Finish {
				fail("seq %d: job %d completed as [%v, %v] at %v, placed as [%v, %v]", ev.Seq, ev.Job, ev.Start, ev.Finish, ev.Time, a.start, jt.planned)
			}
			a.end = ev.Finish
			held[a.site] = append(held[a.site], *a)
			jt.completions++
			if jt.completions > 1 {
				fail("seq %d: job %d completed twice", ev.Seq, ev.Job)
				continue
			}
			jt.completion = ev.Finish
			sum.Jobs++
			sum.Makespan = math.Max(sum.Makespan, ev.Finish)
			respSum += ev.Finish - jt.arrival
			servSum += ev.Finish - ev.Start
			if jt.risky {
				sum.NRisk++
			}
			if jt.failed {
				sum.NFail++
			}
			if jt.fell {
				sum.Fallbacks++
			}
			if spec.Deadline > 0 && ev.Finish > spec.Deadline {
				sum.NDeadlineMiss++
			}
		default:
			fail("seq %d: unexpected %s event on a static platform", ev.Seq, ev.Kind)
		}
	}

	for _, id := range in.Accepted {
		jt := jobs[id]
		if jt == nil || !jt.arrived || jt.completions != 1 {
			n := 0
			if jt != nil {
				n = jt.completions
			}
			fail("job %d was accepted but completed %d times", id, n)
		}
	}
	for s, as := range held {
		sort.Slice(as, func(i, k int) bool { return as[i].start < as[k].start })
		for i := 1; i < len(as); i++ {
			if as[i].start < as[i-1].end {
				fail("site %d runs two attempts at once: [%v, %v] and [%v, %v]", s, as[i-1].start, as[i-1].end, as[i].start, as[i].end)
			}
		}
	}
	if in.Budget > 0 {
		for t, n := range perRound {
			if n > in.Budget {
				fail("round %v placed %d jobs, budget is %d", t, n, in.Budget)
			}
		}
	}

	if sum.Jobs > 0 {
		sum.AvgResponse = respSum / float64(sum.Jobs)
		sum.AvgService = servSum / float64(sum.Jobs)
		sum.Slowdown = sum.AvgResponse / sum.AvgService
	}
	got := in.Summary
	if got.Jobs != sum.Jobs || got.NRisk != sum.NRisk || got.NFail != sum.NFail ||
		got.Fallbacks != sum.Fallbacks || got.NDeadlineMiss != sum.NDeadlineMiss || got.NInterrupted != 0 {
		fail("summary counts jobs=%d nrisk=%d nfail=%d fallbacks=%d deadline_miss=%d interrupted=%d, events give %d %d %d %d %d 0",
			got.Jobs, got.NRisk, got.NFail, got.Fallbacks, got.NDeadlineMiss, got.NInterrupted,
			sum.Jobs, sum.NRisk, sum.NFail, sum.Fallbacks, sum.NDeadlineMiss)
	}
	if got.Makespan != sum.Makespan || !closeTo(got.AvgResponse, sum.AvgResponse) ||
		!closeTo(got.AvgService, sum.AvgService) || !closeTo(got.Slowdown, sum.Slowdown) {
		fail("summary makespan=%v response=%v service=%v slowdown=%v, events give %v %v %v %v",
			got.Makespan, got.AvgResponse, got.AvgService, got.Slowdown,
			sum.Makespan, sum.AvgResponse, sum.AvgService, sum.Slowdown)
	}
	return bad, sum
}
