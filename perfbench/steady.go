package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// so the spreads printed here are the ones the bounds are judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := i*m - j*4
		lo, hi := j-1, j
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		return (s[lo]*float64(4-delta) + s[hi]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// bounds reads each end-to-end metric's bound from BENCHMARK.json in
// the working directory (empty when the file is absent).
func bounds() map[string]float64 {
	out := map[string]float64{}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return out
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return out
	}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// steadiness runs the workload n times on seeds seed..seed+n-1, prints
// each end-to-end metric's median, quartiles, (max−min)/median and
// (Q3−Q1)/median next to its bound, then makes one traced run on the
// first seed and prints the tracing overhead against that seed's
// untraced run.
func steadiness(workload string, seed uint64, seconds, n int) error {
	vals := map[string][]float64{}
	units := map[string]string{}
	var first *Result
	attempted, failed := 0, 0
	for i := 0; i < n; i++ {
		res, eps, err := runBench(workload, seed+uint64(i), seconds, false, workDir)
		if err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: output check failed", seed+uint64(i))
		}
		if first == nil {
			first = res
		}
		attempted += res.Attempted
		failed += res.Failed
		fmt.Printf("run %d seed=%d episodes=%d attempted=%d failed=%d\n", i, seed+uint64(i), len(eps), res.Attempted, res.Failed)
		for k, m := range res.Metrics {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	bnd := bounds()
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-18s %12s %12s %12s %10s %10s %7s\n", "metric", "q1", "median", "q3", "range/med", "iqr/med", "bound")
	for _, k := range names {
		q1, q2, q3 := quartiles(vals[k])
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals[k] {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		fmt.Printf("%-18s %12.6g %12.6g %12.6g %10.4f %10.4f %7.3f %s\n", k, q1, q2, q3, (hi-lo)/q2, (q3-q1)/q2, bnd[k], units[k])
	}
	fmt.Printf("operations attempted=%d failed=%d\n", attempted, failed)

	_, eps, err := runBench(workload, seed, seconds, true, workDir)
	if err != nil {
		return err
	}
	traced := &Result{Metrics: map[string]Metric{}}
	endToEnd(traced, eps, []float64{eps[0].SetupS})
	fmt.Println("tracing overhead, traced run vs untraced run of seed", seed)
	for _, k := range names {
		u, t := first.Metrics[k].Value, traced.Metrics[k].Value
		fmt.Printf("%-18s untraced %12.6g traced %12.6g  %+.1f%%\n", k, u, t, 100*(t-u)/u)
	}
	return nil
}
