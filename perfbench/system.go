package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hammertime/internal/cluster"
	"hammertime/internal/core"
	"hammertime/internal/harness"
	"hammertime/internal/serve"
)

//go:embed digests.json
var digestsJSON []byte

// digests maps an output name ("suite/e1", "daemon/e1@200000") to the
// SHA-256 of the table text the seed program produced for it.
type digests map[string]string

func loadDigests() (digests, error) {
	var d digests
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	for _, id := range suiteIDs {
		if d["suite/"+id] == "" {
			return nil, fmt.Errorf("digests.json: no digest for suite/%s", id)
		}
	}
	for _, j := range daemonMenu {
		if d[j.digestKey()] == "" {
			return nil, fmt.Errorf("digests.json: no digest for %s", j.digestKey())
		}
	}
	return d, nil
}

// check reports whether table hashes to the committed digest of name.
func (d digests) check(name, table string) bool {
	return d[name] != "" && d[name] == sha(table)
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// config is the measured process configuration, recorded with every run.
type config struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Parallelism int    `json:"harness_parallelism"`
	Checking    bool   `json:"core_checking"`
	GoVersion   string `json:"go_version"`
}

func currentConfig() config {
	return config{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: harness.Parallelism(),
		Checking:    core.CheckingEnabled(),
		GoVersion:   runtime.Version(),
	}
}

// enterPhase installs a phase's process-global harness settings and
// verifies the configuration every phase is defined with: the invariant
// auditor off and one grid worker per simulation, so no phase runs more
// simulation threads than the reference host has cores (the suite is
// serial, each daemon client's job and each cluster worker's batch gets
// one core). The returned restore puts the harness defaults back, so no
// phase inherits another's settings.
func enterPhase(collector *harness.BenchCollector) (config, func(), error) {
	harness.SetParallelism(phaseWorkers)
	harness.SetBenchCollector(collector)
	restore := func() {
		harness.SetParallelism(0)
		harness.SetBenchCollector(nil)
	}
	cfg := currentConfig()
	switch {
	case cfg.Checking:
		restore()
		return cfg, nil, errors.New("the invariant auditor is on; the benchmark measures the unaudited shipping path")
	case cfg.Parallelism != phaseWorkers:
		restore()
		return cfg, nil, fmt.Errorf("harness parallelism is %d, the phases are defined with %d", cfg.Parallelism, phaseWorkers)
	}
	return cfg, restore, nil
}

// phaseWorkers is the harness grid worker count of every phase.
const phaseWorkers = 1

// system is everything a run serves from: the hammerd daemon behind its
// HTTP handler, and the cluster's coordinator registry with two workers
// on loopback servers.
type system struct {
	dir string // scratch directory of this set-up

	store   *serve.Store
	manager *serve.Manager
	daemon  *httptest.Server

	registry    *cluster.Registry
	coordinator *httptest.Server
	workers     []*httptest.Server
	heartbeats  sync.WaitGroup
	stopBeats   context.CancelFunc
	rpc         *rpcTimer
	workerTime  *handlerTimer
	auditSeed   uint64
}

// workerCount is the in-process cluster size: one worker per core of the
// 2-core reference host.
const workerCount = 2

// newSystem starts the daemon and the cluster under root and waits until
// both answer: the daemon's /readyz and every worker registered live.
func newSystem(root string, seed uint64) (*system, error) {
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return nil, err
	}
	s := &system{dir: dir, auditSeed: seed, rpc: newRPCTimer(), workerTime: &handlerTimer{}}
	if err := s.startDaemon(); err != nil {
		s.close()
		return nil, err
	}
	if err := s.startCluster(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *system) startDaemon() error {
	store, err := serve.OpenStore(filepath.Join(s.dir, "state"))
	if err != nil {
		return err
	}
	s.store = store
	// Default sessions and queue; rate limiting off, since one process
	// issues every request and the per-client bucket would only measure
	// the bucket.
	s.manager = serve.NewManager(serve.Config{RatePerSec: -1, Store: store})
	s.daemon = httptest.NewServer(serve.NewHandler(s.manager))
	resp, err := http.Get(s.daemon.URL + "/readyz")
	if err != nil {
		return fmt.Errorf("daemon readyz: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("daemon readyz: status %d", resp.StatusCode)
	}
	return nil
}

func (s *system) startCluster() error {
	s.registry = cluster.NewRegistry(0)
	// The coordinator's registration endpoint belongs to whichever
	// dispatcher mounts it; every dispatcher of the run shares this
	// registry, so a fresh (empty-cache) dispatcher sees the same fleet.
	mux := http.NewServeMux()
	cluster.NewDispatcher(cluster.DispatcherConfig{Registry: s.registry}).Mount(mux)
	s.coordinator = httptest.NewServer(mux)
	ctx, cancel := context.WithCancel(context.Background())
	s.stopBeats = cancel
	for i := 0; i < workerCount; i++ {
		node := &cluster.WorkerNode{Name: fmt.Sprintf("w%d", i+1)}
		srv := httptest.NewServer(s.workerTime.wrap(node.Handler()))
		s.workers = append(s.workers, srv)
		s.heartbeats.Add(1)
		go func(name, addr string) {
			defer s.heartbeats.Done()
			cluster.Heartbeat(ctx, nil, s.coordinator.URL, name, addr, 0, nil)
		}(node.Name, srv.URL)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(s.registry.Live()) < workerCount {
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %d of %d workers registered", len(s.registry.Live()), workerCount)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// newDispatcher returns a dispatcher with an empty result cache over the
// run's registered fleet: 10% of remote cells byte-audited, the run's
// seed choosing which.
func (s *system) newDispatcher() *cluster.Dispatcher {
	return cluster.NewDispatcher(cluster.DispatcherConfig{
		Registry:      s.registry,
		Client:        &http.Client{Transport: s.rpc},
		AuditFraction: 0.1,
		AuditSeed:     s.auditSeed,
	})
}

// close stops everything newSystem started and waits for it, then
// removes the scratch directory. Safe on a partly started system.
func (s *system) close() error {
	var errs []error
	if s.manager != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		errs = append(errs, s.manager.Drain(ctx))
		cancel()
	}
	if s.daemon != nil {
		s.daemon.Close()
	}
	if s.store != nil {
		errs = append(errs, s.store.Close())
	}
	if s.stopBeats != nil {
		s.stopBeats()
		s.heartbeats.Wait()
	}
	for _, w := range s.workers {
		w.Close()
	}
	if s.coordinator != nil {
		s.coordinator.Close()
	}
	s.rpc.base.CloseIdleConnections()
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// rpcTimer is the dispatcher's transport: it times each worker RPC from
// request to the end of the response body and keeps the response bodies
// for the cache-key sample, but only while armed (the traced pass).
type rpcTimer struct {
	base  *http.Transport
	armed atomic.Bool

	mu     sync.Mutex
	times  []time.Duration
	bodies [][]byte
}

func newRPCTimer() *rpcTimer {
	return &rpcTimer{base: http.DefaultTransport.(*http.Transport).Clone()}
}

func (t *rpcTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.armed.Load() {
		return t.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.times = append(t.times, elapsed)
	t.bodies = append(t.bodies, body)
	t.mu.Unlock()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// count is how many RPCs were recorded.
func (t *rpcTimer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.times)
}

// take returns the recorded RPC times and clears the record.
func (t *rpcTimer) take() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	times := t.times
	t.times, t.bodies = nil, nil
	return times
}

// handlerTimer times a worker's cell requests server-side, while armed.
type handlerTimer struct {
	armed atomic.Bool
	mu    sync.Mutex
	times []time.Duration
}

func (h *handlerTimer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !h.armed.Load() || r.URL.Path != "/v1/cells" {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		elapsed := time.Since(start)
		h.mu.Lock()
		h.times = append(h.times, elapsed)
		h.mu.Unlock()
	})
}

func (h *handlerTimer) take() []time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	times := h.times
	h.times = nil
	return times
}
