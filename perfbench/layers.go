package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"trustgrid/internal/api"
	"trustgrid/internal/dag"
	"trustgrid/internal/fleet"
	"trustgrid/internal/grid"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
	"trustgrid/internal/sched/kernel"
	"trustgrid/internal/stga"
	"trustgrid/internal/wal"
)

// traceLayers derives the per-layer metrics from one traced episode.
// Every layer is timed from outside through its public functions: the
// host's middleware around Server.Handler, the WAL re-driven from the
// run's own records, the recorded arrival trace replayed through a
// coordinator built from the same spec with timing decorators, and the
// kernel, DAG and STGA entry points called on the replay's inputs. The
// replay must also reproduce the service's placement stream byte for
// byte; a mismatch marks the run incorrect.
func traceLayers(w *Workload, ep *Episode, res *Result) error {
	m := res.Metrics
	hs := ep.Host
	m["server.submit_ms.p50"] = Metric{quantile(nsToMS(hs.SubmitNS), 0.5), "ms"}
	m["server.advance_ms.p50"] = Metric{quantile(nsToMS(hs.AdvanceNS), 0.5), "ms"}
	m["server.requests"] = Metric{float64(hs.Requests), "count"}
	if len(hs.SubmitNS) != len(ep.SubmitMS) {
		return fmt.Errorf("host timed %d submits, generator sent %d", len(hs.SubmitNS), len(ep.SubmitMS))
	}
	over := make([]float64, len(ep.SubmitMS))
	for i, rtt := range ep.SubmitMS {
		over[i] = rtt - float64(hs.SubmitNS[i])/1e6
	}
	m["client.submit_overhead_ms.p50"] = Metric{quantile(over, 0.5), "ms"}
	m["submit_ms.p99"] = Metric{quantile(ep.SubmitMS, 0.99), "ms"}
	m["round_ms.p90"] = Metric{quantile(ep.RoundMS, 0.9), "ms"}
	m["events.count"] = Metric{float64(len(ep.Events)), "count"}
	m["events.bytes"] = Metric{float64(ep.EventBytes), "bytes"}
	m["events.lag_ms.p50"] = Metric{quantile(eventLag(w, ep), 0.5), "ms"}
	m["go.gc_cycles"] = Metric{float64(hs.NumGC), "count"}
	m["go.gc_pause_ms.total"] = Metric{float64(hs.PauseTotalNS) / 1e6, "ms"}
	m["go.alloc_mb.total"] = Metric{float64(hs.TotalAlloc) / (1 << 20), "MB"}
	ready := 0
	for _, ev := range ep.Events {
		if ev.Kind == "job_ready" {
			ready++
		}
	}
	m["dag.ready_events"] = Metric{float64(ready), "count"}

	if err := walLayer(w, ep, m); err != nil {
		return fmt.Errorf("wal layer: %w", err)
	}
	same, err := schedLayers(w, ep, m)
	if err != nil {
		return fmt.Errorf("sched layer: %w", err)
	}
	if !same {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench: the engine-only replay's placement stream differs from the service's")
	}
	parity := 0.0
	if same {
		parity = 1
	}
	m["replay.parity"] = Metric{parity, "bool"}
	return trainLayer(w, m)
}

func nsToMS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// eventLag is, per round, the time from the advance response until the
// follower held the round's last event. Every event is emitted inside
// an advance or the drain, so round k's last event is the last one
// stamped at or before the round's Δ boundary.
func eventLag(w *Workload, ep *Episode) []float64 {
	var lag []float64
	i := -1
	for k, end := range ep.RoundEnd {
		t := float64(k+1) * w.Host.BatchInterval
		for i+1 < len(ep.Events) && ep.Events[i+1].Time <= t {
			i++
		}
		if i >= 0 {
			lag = append(lag, ms(ep.EventRecv[i].Sub(end)))
		}
	}
	return lag
}

// walLayer counts what the run wrote to its WAL directory and re-drives
// wal.Log on those records: the same commit groups (one per accepted
// submit), the run's snapshot payloads at the sequence numbers they
// covered, then a full Open+Replay of the result.
func walLayer(w *Workload, ep *Episode, m map[string]Metric) error {
	names := []string{"wal.records", "wal.bytes", "wal.snapshots", "wal.snapshot_bytes.max",
		"wal.commit_ms.p50", "wal.snapshot_ms.p50", "wal.replay_ms"}
	units := []string{"count", "bytes", "count", "bytes", "ms", "ms", "ms"}
	for i, n := range names {
		m[n] = Metric{0, units[i]}
	}
	if !w.Host.WAL {
		return nil
	}
	dir := filepath.Join(ep.Dir, walDirName)
	src, err := wal.Open(dir)
	if err != nil {
		return err
	}
	var recs []wal.Record
	err = src.Replay(0, func(r wal.Record) error { recs = append(recs, r); return nil })
	snaps, serr := src.Snapshots()
	if cerr := src.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return err
	}
	var bytes, snapMax int64
	for _, p := range segs {
		st, err := os.Stat(p)
		if err != nil {
			return err
		}
		bytes += st.Size()
	}
	payloads := make([][]byte, len(snaps))
	for i := range snaps {
		// Snapshots lists newest first; re-drive oldest first.
		ref := snaps[len(snaps)-1-i]
		if payloads[i], err = wal.ReadSnapshot(ref); err != nil {
			return err
		}
		snapMax = max(snapMax, int64(len(payloads[i])))
	}

	redo := filepath.Join(ep.Dir, "wal-redrive")
	l, err := wal.Open(redo)
	if err != nil {
		return err
	}
	defer l.Close()
	var commit, snapshot []float64
	next, si := 0, 0
	flushSnaps := func() error {
		for si < len(snaps) && snaps[len(snaps)-1-si].Seq <= l.LastSeq() {
			t := time.Now()
			if err := l.WriteSnapshot(snaps[len(snaps)-1-si].Seq, payloads[si]); err != nil {
				return err
			}
			snapshot = append(snapshot, ms(time.Since(t)))
			si++
		}
		return nil
	}
	groups := append(append([]int(nil), ep.Groups...), len(recs))
	for _, g := range groups {
		for end := min(next+g, len(recs)); next < end; next++ {
			if _, err := l.Append(recs[next]); err != nil {
				return err
			}
		}
		t := time.Now()
		if err := l.Commit(); err != nil {
			return err
		}
		commit = append(commit, ms(time.Since(t)))
		if err := flushSnaps(); err != nil {
			return err
		}
	}
	if err := l.Close(); err != nil {
		return err
	}
	t := time.Now()
	rl, err := wal.Open(redo)
	if err != nil {
		return err
	}
	replayed := 0
	err = rl.Replay(0, func(wal.Record) error { replayed++; return nil })
	replay := ms(time.Since(t))
	if cerr := rl.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if replayed != len(recs) {
		return fmt.Errorf("re-driven log replays %d records, the run wrote %d", replayed, len(recs))
	}
	m["wal.records"] = Metric{float64(len(recs)), "count"}
	m["wal.bytes"] = Metric{float64(bytes), "bytes"}
	m["wal.snapshots"] = Metric{float64(len(snaps)), "count"}
	m["wal.snapshot_bytes.max"] = Metric{float64(snapMax), "bytes"}
	m["wal.commit_ms.p50"] = Metric{quantile(commit[:len(commit)-1], 0.5), "ms"}
	m["wal.snapshot_ms.p50"] = Metric{quantile(snapshot, 0.5), "ms"}
	m["wal.replay_ms"] = Metric{replay, "ms"}
	return nil
}

// timedShard is an in-process engine shard whose AdvanceTo is timed.
// With a tracker it also mirrors the shard's events into it, so the
// shard's scheduler can time Tracker.BatchRanks on the exact dependency
// state the engine ranks each batch against.
type timedShard struct {
	*sched.Online
	last    time.Duration
	tracker *dag.Tracker
}

func (s *timedShard) AdvanceTo(t float64) error {
	t0 := time.Now()
	err := s.Online.AdvanceTo(t)
	s.last = time.Since(t0)
	return err
}

func (s *timedShard) SetEventSink(fn func(sched.EngineEvent)) {
	if s.tracker == nil {
		s.Online.SetEventSink(fn)
		return
	}
	s.Online.SetEventSink(func(ev sched.EngineEvent) {
		switch ev.Kind {
		case sched.EventArrived:
			j := ev.Job
			s.tracker.Arrive(&j)
		case sched.EventCompleted:
			s.tracker.Complete(ev.Job.ID)
		}
		fn(ev)
	})
}

// roundInput is one Schedule call's kernel inputs, kept for timing
// kernel.Builder.Build after the replay.
type roundInput struct {
	now         float64
	sites       []*grid.Site
	ready       []float64
	alive       []bool
	batch       []*grid.Job
	scheduleDur time.Duration
}

// timedScheduler times Scheduler.Schedule and records its inputs. With
// a tracker it times Tracker.BatchRanks instead and records nothing
// else (the DAG pass).
type timedScheduler struct {
	inner   sched.Scheduler
	calls   []roundInput
	tracker *dag.Tracker
	meanInv float64
	ranks   []float64
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Schedule(batch []*grid.Job, st *sched.State) []sched.Assignment {
	if s.tracker != nil {
		if s.tracker.SawEdges() {
			out := make([]float64, len(batch))
			t := time.Now()
			s.tracker.BatchRanks(batch, s.meanInv, out)
			s.ranks = append(s.ranks, ms(time.Since(t)))
		}
		return s.inner.Schedule(batch, st)
	}
	t := time.Now()
	as := s.inner.Schedule(batch, st)
	d := time.Since(t)
	s.calls = append(s.calls, roundInput{
		now: st.Now, sites: st.Sites, ready: append([]float64(nil), st.Ready...),
		alive: append([]bool(nil), st.Alive...), batch: append([]*grid.Job(nil), batch...),
		scheduleDur: d,
	})
	return as
}

// replay is one engine-only pass over the recorded trace.
type replay struct {
	coord  *sched.Coordinator
	shards []*timedShard
	scheds []*timedScheduler
	events []sched.EngineEvent
}

// newReplay builds a coordinator from the same fleet.Spec derivation
// server.New uses, with every shard and scheduler wrapped.
func newReplay(w *Workload, dagPass bool) (*replay, error) {
	hc := w.Host
	weights := map[string]float64{api.DefaultTenant: 1}
	for _, t := range hc.Tenants {
		weights[t.ID] = t.Weight
		if t.Weight == 0 {
			weights[t.ID] = 1
		}
	}
	spec := &fleet.Spec{
		Sites: hc.Sites, Training: hc.Training, Algo: hc.Algo, Mode: hc.Mode,
		BatchInterval: hc.BatchInterval, Seed: hc.Seed, Setup: hc.Setup,
		Shards: hc.Shards, RoundBudget: hc.RoundBudget, Weights: weights,
	}
	r := &replay{}
	shards := make([]sched.Shard, hc.Shards)
	for i := range shards {
		rc, err := spec.ShardConfig(i, false)
		if err != nil {
			return nil, err
		}
		ts := &timedScheduler{inner: rc.Scheduler}
		sh := &timedShard{}
		if dagPass {
			ts.tracker = dag.NewTracker()
			sh.tracker = ts.tracker
			for _, s := range rc.Sites {
				ts.meanInv += 1 / s.Speed
			}
			ts.meanInv /= float64(len(rc.Sites))
		}
		rc.Scheduler = ts
		if sh.Online, err = sched.NewOnline(rc); err != nil {
			return nil, err
		}
		r.shards = append(r.shards, sh)
		r.scheds = append(r.scheds, ts)
		shards[i] = sh
	}
	var err error
	r.coord, err = sched.AttachCoordinator(spec.Parts(), shards, func(ev sched.EngineEvent) {
		r.events = append(r.events, ev)
	})
	return r, err
}

// placementLine renders one placement at full precision; two streams
// are byte-identical iff their concatenated lines are.
func placementLine(b *strings.Builder, job, site int, start, finish float64) {
	fmt.Fprintf(b, "job=%d site=%d start=%.17g finish=%.17g\n", job, site, start, finish)
}

// schedLayers replays the recorded arrival trace round by round (each
// record is submitted before the advance whose window holds its
// arrival, exactly as the generator sent it) and reports the sched,
// kernel, STGA and DAG layer metrics. It returns whether the replay's
// placement stream equals the service's.
func schedLayers(w *Workload, ep *Episode, m map[string]Metric) (bool, error) {
	f, err := os.Open(filepath.Join(ep.Dir, traceFile))
	if err != nil {
		return false, err
	}
	recs, err := api.ReadTrace(f)
	f.Close()
	if err != nil {
		return false, err
	}
	jobs := api.JobsFromTrace(recs)
	rounds := len(w.Rounds)
	delta := w.Host.BatchInterval

	// drive feeds the jobs to rp, calling timed(k, d) once round k's
	// advance returns after d.
	drive := func(rp *replay, timed func(k int, d time.Duration)) (*sched.Result, error) {
		next := 0
		for k := 1; k <= rounds; k++ {
			t := float64(k) * delta
			for ; next < len(jobs) && jobs[next].Arrival < t; next++ {
				if err := rp.coord.SubmitLocal(jobs[next]); err != nil {
					return nil, err
				}
			}
			t0 := time.Now()
			if err := rp.coord.AdvanceTo(t); err != nil {
				return nil, err
			}
			timed(k, time.Since(t0))
		}
		for ; next < len(jobs); next++ {
			if err := rp.coord.SubmitLocal(jobs[next]); err != nil {
				return nil, err
			}
		}
		return rp.coord.Drain()
	}

	rp, err := newReplay(w, false)
	if err != nil {
		return false, err
	}
	var roundMS, selfMS, shardMax, shardMean []float64
	seen := make([]int, len(rp.scheds))
	res, err := drive(rp, func(k int, d time.Duration) {
		var slowest time.Duration
		var shardMS []float64
		for i, s := range rp.scheds {
			for ; seen[i] < len(s.calls); seen[i]++ {
				slowest = max(slowest, s.calls[seen[i]].scheduleDur)
			}
			shardMS = append(shardMS, ms(rp.shards[i].last))
		}
		roundMS = append(roundMS, ms(d))
		selfMS = append(selfMS, ms(d-slowest))
		shardMax = append(shardMax, maxOf(shardMS))
		shardMean = append(shardMean, mean(shardMS))
	})
	if err != nil {
		return false, err
	}

	var schedMS, batch []float64
	var cells float64
	var build []float64
	for _, s := range rp.scheds {
		var kb kernel.Builder
		for _, c := range s.calls {
			schedMS = append(schedMS, ms(c.scheduleDur))
			batch = append(batch, float64(len(c.batch)))
			cells += float64(len(c.sites) * len(c.batch))
			t := time.Now()
			kb.Build(c.now, c.sites, c.ready, c.alive, c.batch)
			build = append(build, ms(time.Since(t)))
		}
	}
	sum := res.Summary
	m["sched.round_ms.p50"] = Metric{quantile(roundMS, 0.5), "ms"}
	m["sched.schedule_ms.p50"] = Metric{quantile(schedMS, 0.5), "ms"}
	m["sched.self_ms.p50"] = Metric{quantile(selfMS, 0.5), "ms"}
	m["sched.shard_ms.max"] = Metric{quantile(shardMax, 0.5), "ms"}
	m["sched.shard_ms.mean"] = Metric{quantile(shardMean, 0.5), "ms"}
	m["sched.rounds"] = Metric{float64(len(schedMS)), "count"}
	m["sched.batch_jobs.mean"] = Metric{mean(batch), "count"}
	m["sched.batch_jobs.max"] = Metric{maxOf(batch), "count"}
	m["sched.nrisk"] = Metric{float64(sum.NRisk), "count"}
	m["sched.nfail"] = Metric{float64(sum.NFail), "count"}
	m["sched.fallbacks"] = Metric{float64(sum.Fallbacks), "count"}
	m["sched.deadline_miss"] = Metric{float64(sum.NDeadlineMiss), "count"}
	m["kernel.build_ms.p50"] = Metric{quantile(build, 0.5), "ms"}
	m["kernel.cells"] = Metric{cells, "count"}
	hit := 0.0
	if st, ok := rp.scheds[0].inner.(*stga.Scheduler); ok {
		hit = st.Table().HitRate()
	}
	m["stga.history_hit_rate"] = Metric{hit, "ratio"}

	var want, got strings.Builder
	for _, ev := range ep.Events {
		if ev.Kind == "placed" {
			placementLine(&want, ev.Job, ev.Site, ev.Start, ev.Finish)
		}
	}
	for _, ev := range rp.events {
		if ev.Kind == sched.EventPlaced {
			placementLine(&got, ev.Job.ID, ev.Site, ev.Start, ev.Finish)
		}
	}
	same := want.String() == got.String()

	// The DAG pass: a second replay whose shards mirror their events
	// into trackers, timing BatchRanks on every batch once edges exist.
	var ranks []float64
	if hasEdges(jobs) {
		dp, err := newReplay(w, true)
		if err != nil {
			return false, err
		}
		if _, err := drive(dp, func(int, time.Duration) {}); err != nil {
			return false, err
		}
		for _, s := range dp.scheds {
			ranks = append(ranks, s.ranks...)
		}
	}
	m["dag.ranks_ms.p50"] = Metric{quantile(ranks, 0.5), "ms"}
	return same, nil
}

func hasEdges(jobs []*grid.Job) bool {
	for _, j := range jobs {
		if len(j.DependsOn) > 0 {
			return true
		}
	}
	return false
}

// trainLayer times Scheduler.Train on the workload's training set, the
// work the STGA does at daemon setup (median of three).
func trainLayer(w *Workload, m map[string]Metric) error {
	var train []float64
	if w.Host.Algo == "stga" && len(w.Host.Training) > 0 {
		setup := w.Host.Setup
		policy := setup.Policy(grid.FRisky, setup.F)
		for i := 0; i < 3; i++ {
			sc, err := setup.SchedulerByName("stga", policy, rng.New(w.Host.Seed).Derive("perfbench/train"), nil, nil)
			if err != nil {
				return err
			}
			t := time.Now()
			sc.(*stga.Scheduler).Train(w.Host.Training, w.Host.Sites, setup.TrainBatchSize)
			train = append(train, time.Since(t).Seconds())
		}
	}
	m["stga.train_s"] = Metric{median(train), "s"}
	return nil
}
