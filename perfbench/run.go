package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last stdout line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// setupProbes is how many extra spawn-to-healthy measurements a run
// takes before its episodes, so setup_s is a median of several.
const setupProbes = 8

// runBench runs one benchmark run: setup probes, then whole episodes
// until the time budget would be exceeded by another one (at least
// one), checking every episode's output. traced selects the per-layer
// report.
func runBench(name string, seed uint64, seconds int, traced bool, workDir string) (*Result, []*Episode, error) {
	w, err := makeWorkload(name, seed)
	if err != nil {
		return nil, nil, err
	}
	bin, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, nil, err
	}
	root, err := os.MkdirTemp(workDir, name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(root)
	dir := func(label string, i int) (string, error) {
		d := filepath.Join(root, fmt.Sprintf("%s-%d", label, i))
		return d, os.Mkdir(d, 0o755)
	}

	res := &Result{Correct: true, Metrics: map[string]Metric{}}
	var setups []float64
	if !traced {
		for i := 0; i < setupProbes; i++ {
			d, err := dir("probe", i)
			if err != nil {
				return nil, nil, err
			}
			s, err := probeSetup(bin, d, w.Host)
			if err != nil {
				return nil, nil, err
			}
			setups = append(setups, s)
			res.Attempted++
			os.RemoveAll(d)
		}
	}

	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	var eps []*Episode
	for i := 0; ; i++ {
		d, err := dir("episode", i)
		if err != nil {
			return nil, nil, err
		}
		t := time.Now()
		ep, err := runEpisode(bin, d, w, traced)
		if err != nil {
			return nil, nil, err
		}
		res.Attempted += ep.Attempted
		res.Failed += ep.Failed
		setups = append(setups, ep.SetupS)
		if bad := checkEpisode(w, ep); len(bad) > 0 {
			res.Correct = false
			for _, b := range bad {
				fmt.Fprintf(os.Stderr, "perfbench: %s episode %d: %s\n", name, i, b)
			}
		}
		if len(eps) > 0 && !sameOutcome(eps[0], ep) {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s episode %d: makespan/response differ from episode 0 on the same inputs\n", name, i)
		}
		eps = append(eps, ep)
		fmt.Fprintf(os.Stderr, "perfbench: %s episode %d: setup %.4fs, %d jobs in %.3fs, cpu %.3fs, maxrss %d KB, submit p50 %.4fms, round p50 %.4fms p90 %.4fms\n",
			name, i, ep.SetupS, len(ep.Accepted), ep.ElapsedS, ep.CPUS, ep.Host.PeakRSSKB,
			quantile(ep.SubmitMS, 0.5), quantile(ep.RoundMS, 0.5), quantile(ep.RoundMS, 0.9))
		if traced {
			if err := traceLayers(w, ep, res); err != nil {
				return nil, nil, err
			}
			break
		}
		os.RemoveAll(d)
		if time.Since(start)+time.Since(t) > budget {
			break
		}
	}
	if !traced {
		endToEnd(res, eps, setups)
	}
	return res, eps, nil
}

// checkEpisode runs the independent checker on one episode.
func checkEpisode(w *Workload, ep *Episode) []string {
	if ep.Drain == nil {
		return []string{"no drain summary"}
	}
	bad, _ := check(CheckInput{
		Sites: w.Host.Sites, Jobs: w.Jobs, Accepted: ep.Accepted,
		Delta: w.Host.BatchInterval, Budget: w.Host.RoundBudget,
		Lambda: w.Host.Setup.Lambda, F: w.Host.Setup.F,
		Events: ep.Events, Summary: ep.Drain.Summary,
	})
	if len(ep.Accepted) != len(w.Jobs) {
		bad = append(bad, fmt.Sprintf("%d of %d jobs accepted", len(ep.Accepted), len(w.Jobs)))
	}
	return bad
}

func sameOutcome(a, b *Episode) bool {
	if a.Drain == nil || b.Drain == nil {
		return a.Drain == b.Drain
	}
	return a.Drain.Summary.Makespan == b.Drain.Summary.Makespan &&
		a.Drain.Summary.AvgResponse == b.Drain.Summary.AvgResponse
}

// endToEnd fills the end-to-end metrics: latency percentiles pool every
// request of the run, per-episode figures are medians over its episodes.
func endToEnd(res *Result, eps []*Episode, setups []float64) {
	var submits, rounds, rate, cpu, rss []float64
	for _, ep := range eps {
		submits = append(submits, ep.SubmitMS...)
		rounds = append(rounds, ep.RoundMS...)
		n := float64(len(ep.Accepted))
		rate = append(rate, n/ep.ElapsedS)
		cpu = append(cpu, ep.CPUS*1e6/n)
		rss = append(rss, float64(ep.Host.PeakRSSKB)/1024)
	}
	m := res.Metrics
	m["setup_s"] = Metric{median(setups), "s"}
	m["jobs_per_s"] = Metric{median(rate), "1/s"}
	m["submit_ms.p50"] = Metric{quantile(submits, 0.5), "ms"}
	m["round_ms.p50"] = Metric{quantile(rounds, 0.5), "ms"}
	m["cpu_us_per_job"] = Metric{median(cpu), "us"}
	m["peak_rss_mb"] = Metric{median(rss), "MB"}
	if d := eps[0].Drain; d != nil {
		m["makespan_s"] = Metric{d.Summary.Makespan, "s"}
		m["response_s.mean"] = Metric{d.Summary.AvgResponse, "s"}
	}
}

// referenceFigures prints figures that did not repeat well enough on
// the reference host to carry a bound; they stay out of the JSON line.
func referenceFigures(eps []*Episode) {
	var submits, rounds []float64
	for _, ep := range eps {
		submits = append(submits, ep.SubmitMS...)
		rounds = append(rounds, ep.RoundMS...)
	}
	fmt.Printf("reference round_ms.p90 %.6g ms (%d rounds)\n", quantile(rounds, 0.9), len(rounds))
	fmt.Printf("reference submit_ms.p99 %.6g ms (%d submits)\n", quantile(submits, 0.99), len(submits))
}
