package main

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"trustgrid/internal/api"
	"trustgrid/internal/dag"
	"trustgrid/internal/experiments"
	"trustgrid/internal/grid"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
)

// HostConfig is everything the service host needs to build the daemon.
// The generator writes it as JSON; the host reads it and calls
// server.New with it, so the service sees only generated specs.
type HostConfig struct {
	Sites         []*grid.Site      `json:"sites"`
	Training      []*grid.Job       `json:"training,omitempty"`
	Algo          string            `json:"algo"`
	Mode          string            `json:"mode"`
	BatchInterval float64           `json:"batch_interval"`
	Seed          uint64            `json:"seed"`
	Setup         experiments.Setup `json:"setup"`
	Shards        int               `json:"shards"`
	Tenants       []api.TenantSpec  `json:"tenants"`
	RoundBudget   int               `json:"round_budget,omitempty"`
	EventBuffer   int               `json:"event_buffer,omitempty"`
	WAL           bool              `json:"wal,omitempty"`
	// Traced turns on the host's timing middleware, the arrival trace
	// and full-history WAL retention (the WAL layer is re-driven from
	// every record and snapshot the run wrote).
	Traced bool `json:"traced,omitempty"`
}

// Submit is one POST /v2/tenants/{tenant}/jobs request.
type Submit struct {
	Tenant string
	Jobs   []api.JobSpec
}

// Workload is one generated input set: the daemon's configuration and
// the closed-loop request schedule. Round k (1-based) sends its submits
// and then advances the clock to k·Δ; every arrival of round k lies
// strictly inside ((k−1)·Δ, k·Δ), so each advance crosses exactly one
// Δ boundary and places exactly that round's batch.
type Workload struct {
	Name   string
	Host   HostConfig
	Rounds [][]Submit
	// Jobs indexes every spec by ID (with the tenant's policy applied)
	// for the checker.
	Jobs map[int]JobInfo
}

// JobInfo is the checker's view of one submitted job.
type JobInfo struct {
	Tenant   string
	Arrival  float64
	Workload float64
	SD       float64
	SafeOnly bool
	Deps     []int
	Deadline float64
}

// workloadNames lists the benchmark's workloads in report order.
var workloadNames = []string{"ingest-durable", "stga-rounds", "dag-shards"}

// makeWorkload generates a workload from its name and seed. The same
// (name, seed) always yields the same inputs.
func makeWorkload(name string, seed uint64) (*Workload, error) {
	r := rand.New(rand.NewPCG(seed, 0x7472757374677264))
	setup := experiments.DefaultSetup()
	// One GA worker keeps the service on one core; the generator owns
	// the other. Placements do not depend on the worker count.
	setup.GAWorkers = 1
	setup.Workers = 1
	w := &Workload{Name: name, Jobs: make(map[int]JobInfo)}
	w.Host = HostConfig{Mode: "frisky", Seed: seed, Setup: setup, Shards: 1}
	switch name {
	case "ingest-durable":
		genIngest(w, r)
	case "stga-rounds":
		genSTGA(w, r)
	case "dag-shards":
		if err := genDAG(w, r, seed); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// platform draws single-node sites with the given speeds and a uniform
// SL in [0.4, 1.0], raising the most secure site to at least 0.95 so
// that a strictly safe site exists for every demand (the PSA
// platform's guarantee). The draw uses a fixed stream, not the
// workload seed: every seed runs on the same grid, as a benchmark
// cluster would, and varies only the load offered to it. On 20 sites
// the SL draw alone moves mean response time by ±10% from seed to
// seed, which would drown any change a program edit makes.
func platform(speeds []float64) []*grid.Site {
	r := rand.New(rand.NewPCG(1, 0x706c6174666f726d))
	sites := make([]*grid.Site, len(speeds))
	best := 0
	for i, sp := range speeds {
		sites[i] = &grid.Site{ID: i, Speed: sp, Nodes: 1, SecurityLevel: 0.4 + 0.6*r.Float64()}
		if sites[i].SecurityLevel > sites[best].SecurityLevel {
			best = i
		}
	}
	if sites[best].SecurityLevel < 0.95 {
		sites[best].SecurityLevel = 0.95 + 0.05*r.Float64()
	}
	return sites
}

// scaleSpeeds is the benchkit scale-axis platform shape: m sites with
// speeds cycling through 10, 20, ..., 100.
func scaleSpeeds(m int) []float64 {
	s := make([]float64, m)
	for i := range s {
		s[i] = float64(i%10+1) * 10
	}
	return s
}

// psaJob draws a Table 1 PSA job: 20 workload levels of 15000 work
// units and a uniform security demand in [0.6, 0.9].
func psaJob(r *rand.Rand) (workload, sd float64) {
	return float64(1+r.IntN(20)) * 15000, 0.6 + 0.3*r.Float64()
}

// arrivals returns n sorted arrival stamps strictly inside round k's
// window ((k−1)·Δ, k·Δ).
func arrivals(r *rand.Rand, n, k int, delta float64) []float64 {
	out := make([]float64, n)
	lo := float64(k-1) * delta
	for i := range out {
		out[i] = lo + delta*(0.001+0.998*r.Float64())
	}
	sort.Float64s(out)
	return out
}

func (w *Workload) add(tenant string, safeOnly bool, id int, arrival, workload, sd float64, deps []int, deadline float64) api.JobSpec {
	w.Jobs[id] = JobInfo{Tenant: tenant, Arrival: arrival, Workload: workload, SD: sd,
		SafeOnly: safeOnly, Deps: deps, Deadline: deadline}
	idc, arr := id, arrival
	return api.JobSpec{ID: &idc, Arrival: &arr, Workload: workload, SD: sd, DependsOn: deps, Deadline: deadline}
}

// genIngest: Min-Min f-risky on the 20-site PSA platform, WAL on with
// the default snapshot cadence. Three weighted tenants (one
// secure-only) send many small submits; every tenth round is a
// burst above the round budget, which DRR rations.
func genIngest(w *Workload, r *rand.Rand) {
	const (
		rounds = 480
		delta  = 5000.0
		budget = 48
	)
	psa := grid.PSAPlatform()
	w.Host.Sites = platform(psa.Speeds)
	w.Host.Algo = "minmin"
	w.Host.BatchInterval = delta
	w.Host.RoundBudget = budget
	w.Host.WAL = true
	tenants := []api.TenantSpec{
		{ID: "gold", Weight: 4},
		{ID: "silver", Weight: 2},
		{ID: "vault", Weight: 1, SecureOnly: true},
	}
	w.Host.Tenants = tenants
	share := []float64{0.5, 0.8, 1} // cumulative: gold 50%, silver 30%, vault 20%
	id := 1
	for k := 1; k <= rounds; k++ {
		n := 16
		if k%10 == 0 {
			n = 60
		}
		var round []Submit
		var cur *Submit
		limit := 0
		for _, at := range arrivals(r, n, k, delta) {
			u := r.Float64()
			t := 0
			for u >= share[t] {
				t++
			}
			if cur == nil || cur.Tenant != tenants[t].ID || len(cur.Jobs) == limit {
				round = append(round, Submit{Tenant: tenants[t].ID})
				cur = &round[len(round)-1]
				limit = 1 + r.IntN(5)
			}
			wl, sd := psaJob(r)
			cur.Jobs = append(cur.Jobs, w.add(tenants[t].ID, tenants[t].SecureOnly, id, at, wl, sd, nil, 0))
			id++
		}
		w.Rounds = append(w.Rounds, round)
	}
}

// genSTGA: the STGA (draw sequence v2, history trained at setup from
// 500 PSA jobs) on a 256-site scale-axis platform, one shard, no WAL,
// no round budget. 200 jobs per Δ arrive in five submits of 40 from
// one tenant.
func genSTGA(w *Workload, r *rand.Rand) {
	const (
		rounds = 50
		delta  = 4000.0
	)
	w.Host.Sites = platform(scaleSpeeds(256))
	w.Host.Algo = "stga"
	w.Host.Setup.RNGVersion = int(rng.V2)
	w.Host.BatchInterval = delta
	w.Host.EventBuffer = 1 << 20
	for i := 0; i < w.Host.Setup.TrainingJobs; i++ {
		wl, sd := psaJob(r)
		w.Host.Training = append(w.Host.Training, &grid.Job{ID: i, Workload: wl, Nodes: 1, SecurityDemand: sd})
	}
	w.Host.Tenants = []api.TenantSpec{{ID: "sweep"}}
	id := 1
	for k := 1; k <= rounds; k++ {
		n := 200
		var round []Submit
		for _, at := range arrivals(r, n, k, delta) {
			if len(round) == 0 || len(round[len(round)-1].Jobs) == 40 {
				round = append(round, Submit{Tenant: "sweep"})
			}
			wl, sd := psaJob(r)
			s := &round[len(round)-1]
			s.Jobs = append(s.Jobs, w.add("sweep", false, id, at, wl, sd, nil, 0))
			id++
		}
		w.Rounds = append(w.Rounds, round)
	}
}

// genDAG: Rank-Min-Min over 3 in-process shards on a 1024-site
// platform, no WAL. Every round each of three tenants (named so that
// each shard owns one) submits one layered DAG from dag.Generate, in
// two requests, so rounds carry large ready batches of fresh roots plus
// released successors.
func genDAG(w *Workload, r *rand.Rand, seed uint64) error {
	const (
		rounds = 100
		delta  = 1000.0
		shards = 3
	)
	w.Host.Sites = platform(scaleSpeeds(1024))
	w.Host.Algo = "rankminmin"
	w.Host.BatchInterval = delta
	w.Host.Shards = shards
	w.Host.EventBuffer = 1 << 20
	tenants := shardTenants(shards)
	for _, t := range tenants {
		w.Host.Tenants = append(w.Host.Tenants, api.TenantSpec{ID: t})
	}
	meanSpeed := 0.0
	for _, s := range w.Host.Sites {
		meanSpeed += s.Speed
	}
	meanSpeed /= float64(len(w.Host.Sites))
	src := rng.New(seed).Derive("perfbench/dag")
	id := 1
	for k := 1; k <= rounds; k++ {
		var round []Submit
		for ti, t := range tenants {
			const n = 105
			jobs, err := dag.Generate(src.Derive(fmt.Sprintf("%d/%d", k, ti)), dag.GenConfig{
				Jobs: n, Width: 40, EdgeProb: 0.1, Rate: 1,
				WorkloadStep: 15000, Levels: 20,
				Slack: 3, MeanSpeed: meanSpeed, FirstID: id,
			})
			if err != nil {
				return err
			}
			// dag.Generate stamps Poisson arrivals from 0; squeeze them
			// into this round's window, keeping their order.
			last := jobs[len(jobs)-1].Arrival
			lo := float64(k-1) * delta
			half := Submit{Tenant: t}
			for i, j := range jobs {
				at := lo + delta*(0.001+0.998*j.Arrival/last)
				deadline := 0.0
				if j.Deadline > 0 {
					deadline = at + (j.Deadline - j.Arrival)
				}
				half.Jobs = append(half.Jobs, w.add(t, false, j.ID, at, j.Workload, j.SecurityDemand, j.DependsOn, deadline))
				if i == len(jobs)/2 {
					round = append(round, half)
					half = Submit{Tenant: t}
				}
			}
			round = append(round, half)
			id += n
		}
		w.Rounds = append(w.Rounds, round)
	}
	return nil
}

// shardTenants picks tenant names so that the daemon's tenant router
// gives every shard exactly one of them.
func shardTenants(shards int) []string {
	out := make([]string, shards)
	found := 0
	for i := 0; found < shards; i++ {
		name := fmt.Sprintf("dag-%d", i)
		if s := sched.RouteTenant(name, shards); out[s] == "" {
			out[s] = name
			found++
		}
	}
	return out
}
