// Command perfbench is the repository benchmark: it runs the paper's
// experiment suite, a closed-loop job stream against an in-process hammerd
// and a two-worker in-process cluster, checks every table against the
// committed digests, and prints one JSON result line.
//
//	go run . --workload suite|cluster --seed N --seconds S --trace 0|1
//
// Every run performs all three phases, because every run reports every
// end-to-end metric. The phases advance in interleaved steps; the
// workload names the phase that steps first and keeps stepping until it
// has run for --seconds, while the other two do their minimum: one suite
// pass, 200 daemon jobs, two cold cluster passes. --trace 1 replaces the
// measured run with the per-layer run: each phase once untraced and once
// traced, plus the layer ladder. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Seed streams: each phase draws its order from its own PCG stream of the
// run's seed.
const (
	streamSuite   = 1
	streamCluster = 2
	streamDaemon  = 16 // + client index
)

// setupReps is how many times a run builds its system; setup_s is the
// median. One set-up takes a few milliseconds, so a median over few of
// them moves with every scheduling hiccup.
const setupReps = 15

// phases are the three parts of every run.
var phases = []string{"suite", "daemon", "cluster"}

// workloads are the phases a run can stretch. The daemon phase is not
// one: its 200-job minimum already outlasts --seconds, so a daemon
// workload would repeat the minimal run under another name.
var workloads = []string{"suite", "cluster"}

func main() {
	var (
		workload = flag.String("workload", "", "suite or cluster")
		seed     = flag.Uint64("seed", 1, "input seed: experiment, grid and job orders, audit sample")
		seconds  = flag.Int("seconds", 12, "how long the workload's own phase repeats")
		traced   = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the measured run")
		out      = flag.String("out", filepath.Join(".bench_build", "perfbench"), "scratch and trace output directory")
		write    = flag.String("write-digests", "", "compute the digests of every checked table and write them to this file")
	)
	flag.Parse()
	if *write != "" {
		if err := writeDigests(*write); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if !slices.Contains(workloads, *workload) || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds >= 1, --trace 0|1\n", strings.Join(workloads, "|"))
		os.Exit(2)
	}
	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects the reported values by name.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

func run(workload string, seed uint64, dur time.Duration, traced bool, out string) (*result, error) {
	tmp := filepath.Join(out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	led := newLedger()
	m := metrics{}

	var setups []float64
	var sys *system
	var dg digests
	for i := 0; i < setupReps; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
		start := time.Now()
		var err error
		if dg, err = loadDigests(); err != nil {
			return nil, err
		}
		if sys, err = newSystem(tmp, seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, secs(time.Since(start)))
	}
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	ctx := context.Background()

	var err error
	if traced {
		err = runTraced(ctx, sys, seed, dg, led, m, out, workload)
	} else {
		m.set("setup_s", "s", median(setups))
		err = runMeasured(ctx, sys, workload, seed, dur, dg, led, m)
	}
	if err != nil {
		return nil, err
	}
	cerr := sys.close()
	sys = nil
	if cerr != nil {
		return nil, fmt.Errorf("teardown: %w", cerr)
	}
	if !traced {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		m.set("peak_rss_mb", "MB", rss)
	}

	report, err := json.Marshal(led.report())
	if err != nil {
		return nil, err
	}
	fmt.Println(string(report))
	attempted, failed := led.totals()
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric(m)}, nil
}

// phaseOrder puts the workload's own phase first.
func phaseOrder(workload string) []string {
	order := []string{workload}
	for _, p := range phases {
		if p != workload {
			order = append(order, p)
		}
	}
	return order
}

// daemonSlice is how many jobs one daemon step submits.
const daemonSlice = 10

// warmPerStep is how many warm rounds of the cluster grids follow each
// step: a cache-hit grid takes well under a millisecond, so its samples
// are spread over the run in bursts.
const warmPerStep = 4

// nominal is roughly how long each phase's minimum takes on the reference
// host (one suite pass, 200 daemon jobs, two cold passes). It only sets how
// finely the phases interleave, not how much work a run does.
var nominal = map[string]time.Duration{"suite": 9 * time.Second, "daemon": 14 * time.Second, "cluster": 10 * time.Second}

// daemonMinJobs is how many jobs every measured run completes. The p90
// needs 100 (ten samples beyond it), but the p50 falls among the e8 and
// e6 jobs, whose latencies spread over some 40 ms: over 150 jobs it moved
// by ~10% from run to run on a quiet host, sampling noise that shrinks
// with the square root of the job count.
const daemonMinJobs = 200

// clusterMinColds is how many cold cluster passes every measured run
// completes. The process's peak resident set is reached in a cold pass,
// when both workers and the coordinator's audit simulate at once, and
// where it lands depends on how the garbage collector's cycles fall
// against those simulations: one pass peaked anywhere from 41 to 59 MB,
// the highest of two or three varies far less.
const clusterMinColds = 2

// runMeasured is the untraced run behind the end-to-end metrics. The
// phases advance in steps — one suite experiment, ten daemon jobs, one
// cold cluster grid, each followed by warm rounds of the cluster grids —
// always stepping the phase that is least far along, so every metric
// samples the whole run rather than one stretch of it: the reference
// host's speed wanders by ±15% over tens of seconds.
func runMeasured(ctx context.Context, sys *system, workload string, seed uint64, dur time.Duration, dg digests, led *ledger, m metrics) error {
	if err := warmUp(ctx, sys, seed, dg, led); err != nil {
		return err
	}
	suite := newSuiteRunner(seed, dg, led)
	daemon := newDaemonRunner(sys, seed, false, dg, led)
	defer daemon.close()
	clu := newClusterRunner(sys, seed, dg, led)
	defer clu.close()

	target := func(p string) float64 {
		if p == workload {
			return float64(dur)
		}
		return float64(nominal[p])
	}
	spent := make(map[string]time.Duration)
	own := func(p string) bool { return p == workload && spent[p] < dur }
	pending := map[string]func() bool{
		"suite":   func() bool { return suite.midPass() || len(suite.passes) == 0 || own("suite") },
		"daemon":  func() bool { return daemon.submitted < daemonMinJobs || own("daemon") },
		"cluster": func() bool { return clu.midPass() || len(clu.colds) < clusterMinColds || own("cluster") },
	}
	step := map[string]func() error{
		"suite":   func() error { return suite.step(ctx) },
		"daemon":  func() error { return daemon.slice(ctx, daemonSlice) },
		"cluster": func() error { return clu.coldStep(ctx) },
	}
	for {
		next := ""
		for _, p := range phaseOrder(workload) {
			if !pending[p]() {
				continue
			}
			if next == "" || float64(spent[p])/target(p) < float64(spent[next])/target(next) {
				next = p
			}
		}
		if next == "" {
			break
		}
		start := time.Now()
		if err := step[next](); err != nil {
			return err
		}
		spent[next] += time.Since(start)
		for i := 0; i < warmPerStep; i++ {
			if err := clu.warmRound(ctx); err != nil {
				return err
			}
		}
	}

	var walls, cells []float64
	for _, p := range suite.passes {
		walls = append(walls, secs(p.wall))
		cells = append(cells, msAll(p.cells)...)
	}
	m.set("suite_s", "s", median(walls))
	m.set("cell_p50_ms", "ms", percentile(cells, 0.5))
	m.set("cell_p90_ms", "ms", percentile(cells, 0.9))

	if len(daemon.jobs) < samplesFor(0.9) {
		return fmt.Errorf("daemon: %d jobs completed, the p90 needs %d", len(daemon.jobs), samplesFor(0.9))
	}
	lat := make([]float64, len(daemon.jobs))
	for i, j := range daemon.jobs {
		lat[i] = ms(j.latency)
	}
	m.set("jobs_per_s", "1/s", float64(len(daemon.jobs))/secs(daemon.wall))
	m.set("job_p50_ms", "ms", percentile(lat, 0.5))
	m.set("job_p90_ms", "ms", percentile(lat, 0.9))

	var colds []float64
	for _, c := range clu.colds {
		colds = append(colds, secs(c))
	}
	m.set("cluster_cold_s", "s", median(colds))
	m.set("cluster_warm_p50_ms", "ms", median(msAll(clu.warm)))
	return nil
}

// warmUpIDs are the cheapest experiments; the warm-up runs them serially
// and through the cluster.
var warmUpIDs = []string{"e7", "e8"}

// warmUp takes every phase's path once before anything is timed, so no
// timing includes first-use costs (heap growth, connection set-up, lazily
// built tables): the cheapest suite experiments, one job per daemon
// client from dealers of their own, and the same experiments through the
// cluster on a throwaway dispatcher. Its operations are checked and
// counted like any other.
func warmUp(ctx context.Context, sys *system, seed uint64, dg digests, led *ledger) error {
	suite := &suiteRunner{order: warmUpIDs, dg: dg, led: led}
	for len(suite.passes) == 0 {
		if err := suite.step(ctx); err != nil {
			return err
		}
	}
	daemon := newDaemonRunner(sys, seed, false, dg, led)
	defer daemon.close()
	if err := daemon.slice(ctx, daemonClients); err != nil {
		return err
	}
	clu := newClusterRunner(sys, seed, dg, led)
	defer clu.close()
	d := sys.newDispatcher()
	clu.all = append(clu.all, d)
	for _, id := range warmUpIDs {
		if _, err := clu.grid(ctx, d, "warmup", id); err != nil {
			return err
		}
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak rss: no VmHWM in /proc/self/status")
}

// counts is one phase's operation accounting. Refused operations (a 429
// or 503 from the daemon) are also counted as failed.
type counts struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Refused   int `json:"refused"`
}

// ledger is the run's operation accounting, by phase, plus the retry,
// steal and hedge counts and the configuration each phase ran under.
type ledger struct {
	mu      sync.Mutex
	phases  map[string]*counts
	extras  map[string]int64
	configs map[string]config
}

func newLedger() *ledger {
	return &ledger{phases: make(map[string]*counts), extras: make(map[string]int64), configs: make(map[string]config)}
}

func (l *ledger) record(phase string, ok, refused bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.phases[phase]
	if c == nil {
		c = &counts{}
		l.phases[phase] = c
	}
	c.Attempted++
	switch {
	case ok:
		c.Succeeded++
	case refused:
		c.Refused++
		c.Failed++
	default:
		c.Failed++
	}
}

func (l *ledger) extra(name string, n int64) {
	l.mu.Lock()
	l.extras[name] += n
	l.mu.Unlock()
}

func (l *ledger) config(phase string, c config) {
	l.mu.Lock()
	l.configs[phase] = c
	l.mu.Unlock()
}

func (l *ledger) totals() (attempted, failed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.phases {
		attempted += c.Attempted
		failed += c.Failed
	}
	return attempted, failed
}

// report is the ledger as printed before the result line.
func (l *ledger) report() map[string]any {
	l.mu.Lock()
	defer l.mu.Unlock()
	phases := make(map[string]counts, len(l.phases))
	for n, c := range l.phases {
		phases[n] = *c
	}
	return map[string]any{"phases": phases, "counts": l.extras, "config": l.configs}
}
