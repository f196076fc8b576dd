package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"trustgrid/internal/server"
)

// HostStats is what the service host reports when it exits: its Go
// runtime counters and, when traced, the handler times its timing
// middleware saw.
type HostStats struct {
	SubmitNS     []int64 `json:"submit_ns,omitempty"`
	AdvanceNS    []int64 `json:"advance_ns,omitempty"`
	Requests     int     `json:"requests"`
	NumGC        uint32  `json:"num_gc"`
	PauseTotalNS uint64  `json:"pause_total_ns"`
	TotalAlloc   uint64  `json:"total_alloc"`
	// PeakRSSKB is the host's own resident-set high-water mark (VmHWM).
	// The rusage maxrss its parent sees is not: a child exec'd from a
	// vfork-style clone inherits the parent's high-water mark.
	PeakRSSKB int64 `json:"peak_rss_kb"`
}

// File names inside one episode's directory.
const (
	hostConfigFile = "host.json"
	hostStatsFile  = "stats.json"
	traceFile      = "trace.jsonl"
	walDirName     = "wal"
)

// timing is the traced host's middleware: it times every submit and
// advance handler call and counts requests.
type timing struct {
	next  http.Handler
	mu    sync.Mutex
	stats *HostStats
}

func (t *timing) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.next.ServeHTTP(w, r)
	d := time.Since(start).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Requests++
	switch {
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/jobs"):
		t.stats.SubmitNS = append(t.stats.SubmitNS, d)
	case r.Method == http.MethodPost && r.URL.Path == "/v2/advance":
		t.stats.AdvanceNS = append(t.stats.AdvanceNS, d)
	}
}

// peakRSSKB reads this process's VmHWM from /proc/self/status.
func peakRSSKB() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// serve is the service host: it builds the daemon from the episode's
// HostConfig, serves its handler on a loopback port (printed as the
// first stdout line), and on SIGTERM stops the daemon, closes the
// listener and writes its stats next to the config.
func serve(cfgPath string) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return err
	}
	var hc HostConfig
	if err := json.Unmarshal(data, &hc); err != nil {
		return fmt.Errorf("%s: %w", cfgPath, err)
	}
	dir := filepath.Dir(cfgPath)
	cfg := server.Config{
		Sites: hc.Sites, Training: hc.Training, Algo: hc.Algo, Mode: hc.Mode,
		BatchInterval: hc.BatchInterval, Seed: hc.Seed, Setup: hc.Setup,
		Manual: true, Shards: hc.Shards, Tenants: hc.Tenants,
		RoundBudget: hc.RoundBudget, EventBuffer: hc.EventBuffer,
	}
	if hc.WAL {
		cfg.WALDir = filepath.Join(dir, walDirName)
		if hc.Traced {
			cfg.WALKeep = -1
		}
	}
	var traceOut *os.File
	var traceW *bufio.Writer
	if hc.Traced {
		if traceOut, err = os.Create(filepath.Join(dir, traceFile)); err != nil {
			return err
		}
		defer traceOut.Close()
		traceW = bufio.NewWriter(traceOut)
		cfg.TraceWriter = traceW
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	stats := &HostStats{}
	handler := srv.Handler()
	if hc.Traced {
		handler = &timing{next: handler, stats: stats}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Stop(false)
		return err
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()
	hs := &http.Server{Handler: handler, BaseContext: func(net.Listener) context.Context { return baseCtx }}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Println(ln.Addr().String())

	select {
	case <-sig:
	case err := <-serveErr:
		srv.Stop(false)
		return fmt.Errorf("serve: %w", err)
	case <-srv.Done():
	}
	// Stop the loop first: event followers then read the log's tail and
	// end their responses before the listener closes.
	_, stopErr := srv.Stop(false)
	baseCancel()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	if stopErr != nil {
		return fmt.Errorf("stop: %w", stopErr)
	}
	if traceW != nil {
		if err := traceW.Flush(); err != nil {
			return err
		}
		if err := traceOut.Close(); err != nil {
			return err
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	stats.NumGC, stats.PauseTotalNS, stats.TotalAlloc = ms.NumGC, ms.PauseTotalNs, ms.TotalAlloc
	if stats.PeakRSSKB, err = peakRSSKB(); err != nil {
		return err
	}
	out, err := json.Marshal(stats)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, hostStatsFile), out, 0o644)
}
