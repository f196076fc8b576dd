package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"trustgrid/internal/api"
	"trustgrid/internal/client"
)

// host is one running service-host process.
type host struct {
	cmd  *exec.Cmd
	addr string
}

// startHost writes hc into dir and spawns the service host on it,
// returning once the host has printed its listen address.
func startHost(bin, dir string, hc HostConfig) (*host, error) {
	data, err := json.Marshal(hc)
	if err != nil {
		return nil, err
	}
	cfgPath := filepath.Join(dir, hostConfigFile)
	if err := os.WriteFile(cfgPath, data, 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "serve", cfgPath)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	h := &host{cmd: cmd}
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		h.kill()
		return nil, fmt.Errorf("service host exited before listening: %w", err)
	}
	h.addr = strings.TrimSpace(line)
	return h, nil
}

// stop asks the host to shut down and waits for it (killing it after a
// grace period); it returns the process's resource usage, of which only
// the CPU times are the host's own (see HostStats.PeakRSSKB).
func (h *host) stop() (*syscall.Rusage, error) {
	_ = h.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- h.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		_ = h.cmd.Process.Kill()
		<-done
		err = errors.New("service host did not stop within 60s")
	}
	if err != nil {
		return nil, fmt.Errorf("service host: %w", err)
	}
	ru, _ := h.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru, nil
}

func (h *host) kill() {
	_ = h.cmd.Process.Kill()
	_ = h.cmd.Wait()
}

// countingTransport counts the bytes of every /v2/events response body.
type countingTransport struct {
	base   http.RoundTripper
	events *atomic.Int64
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil && req.URL.Path == "/v2/events" {
		resp.Body = countingBody{resp.Body, t.events}
	}
	return resp, err
}

// newClient returns a client whose transport never holds more than two
// connections to the daemon: one for requests, one following events.
func newClient(addr string, eventBytes *atomic.Int64) *client.Client {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return client.New(addr).WithHTTPClient(&http.Client{Transport: countingTransport{tr, eventBytes}})
}

// waitHealthy polls /healthz until the daemon answers.
func waitHealthy(c *client.Client) error {
	deadline := time.Now().Add(120 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := c.Healthz(ctx)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not healthy after 120s: %w", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Episode is one complete pass of a workload against a fresh daemon.
type Episode struct {
	SetupS     float64
	SubmitMS   []float64
	RoundMS    []float64
	ElapsedS   float64 // first submit until the drain response
	Accepted   []int
	Groups     []int // accepted jobs per submit, in order
	Drain      *api.DrainResponse
	Events     []api.Event
	Attempted  int
	Failed     int
	CPUS       float64
	Host       HostStats
	EventBytes int64
	RoundEnd   []time.Time // when each advance response arrived
	Dir        string      // the episode's directory (config, WAL, trace)
	// EventRecv[i] is when the follower held Events[i] (traced only).
	EventRecv []time.Time
}

// probeSetup starts a daemon for the workload, times spawn-to-healthy,
// and stops it.
func probeSetup(bin, dir string, hc HostConfig) (float64, error) {
	t0 := time.Now()
	h, err := startHost(bin, dir, hc)
	if err != nil {
		return 0, err
	}
	var n atomic.Int64
	if err := waitHealthy(newClient(h.addr, &n)); err != nil {
		h.kill()
		return 0, err
	}
	setup := time.Since(t0).Seconds()
	if _, err := h.stop(); err != nil {
		return 0, err
	}
	return setup, nil
}

// runEpisode drives the whole workload through a fresh daemon in closed
// loop: per round, its submits one after another, then one advance to
// the round's Δ boundary; finally a drain. A second connection follows
// the event stream from the start.
func runEpisode(bin, dir string, w *Workload, traced bool) (*Episode, error) {
	hc := w.Host
	hc.Traced = traced
	ep := &Episode{Dir: dir}
	t0 := time.Now()
	h, err := startHost(bin, dir, hc)
	if err != nil {
		return nil, err
	}
	var eventBytes atomic.Int64
	c := newClient(h.addr, &eventBytes)
	if err := waitHealthy(c); err != nil {
		h.kill()
		return nil, err
	}
	ep.SetupS = time.Since(t0).Seconds()
	ep.Attempted++

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	followed := make(chan error, 1)
	es := c.Events(ctx, client.EventsOptions{Follow: true})
	go func() {
		defer es.Close()
		for {
			ev, err := es.Next()
			if err != nil {
				followed <- err
				return
			}
			ep.Events = append(ep.Events, ev)
			if traced {
				ep.EventRecv = append(ep.EventRecv, time.Now())
			}
		}
	}()
	ep.Attempted++

	start := time.Now()
	for k, round := range w.Rounds {
		for _, s := range round {
			t := time.Now()
			ids, err := c.Submit(ctx, s.Tenant, s.Jobs)
			ep.SubmitMS = append(ep.SubmitMS, ms(time.Since(t)))
			ep.Attempted++
			if err != nil {
				ep.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: submit: %v\n", err)
				continue
			}
			ep.Accepted = append(ep.Accepted, ids...)
			ep.Groups = append(ep.Groups, len(ids))
		}
		t := time.Now()
		_, err := c.Advance(ctx, api.AdvanceRequest{To: float64(k+1) * hc.BatchInterval})
		end := time.Now()
		ep.RoundMS = append(ep.RoundMS, ms(end.Sub(t)))
		ep.RoundEnd = append(ep.RoundEnd, end)
		ep.Attempted++
		if err != nil {
			ep.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: advance: %v\n", err)
		}
	}
	ep.Drain, err = c.Drain(ctx)
	ep.ElapsedS = time.Since(start).Seconds()
	ep.Attempted++
	if err != nil {
		ep.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: drain: %v\n", err)
	}

	ru, stopErr := h.stop()
	select {
	case <-followed:
	case <-time.After(30 * time.Second):
		cancel()
		<-followed
		ep.Failed++
		fmt.Fprintln(os.Stderr, "perfbench: event stream did not end after the daemon stopped")
	}
	if stopErr != nil {
		return nil, stopErr
	}
	ep.EventBytes = eventBytes.Load()
	ep.CPUS = tv(ru.Utime) + tv(ru.Stime)
	data, err := os.ReadFile(filepath.Join(dir, hostStatsFile))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &ep.Host); err != nil {
		return nil, err
	}
	return ep, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
