package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"hammertime/internal/harness"
	"hammertime/internal/telemetry"
)

// suiteIDs are the paper's experiments, E1-E10, in their canonical order.
var suiteIDs = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"}

// shuffled returns a seed-determined permutation of ids. stream separates
// the draws of different phases made from one seed.
func shuffled(ids []string, seed, stream uint64) []string {
	out := append([]string(nil), ids...)
	rng := rand.New(rand.NewPCG(seed, stream))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// suitePass is one serial run of E1-E10 at the paper horizons.
type suitePass struct {
	wall  time.Duration // sum of the experiments' wall times
	byExp map[string]time.Duration
	cells []time.Duration // per grid cell, from the harness bench hook
}

// suiteRunner runs suite passes one experiment at a time, so a run can
// interleave them with the other phases. Every table is checked against
// its digest.
type suiteRunner struct {
	order []string
	dg    digests
	led   *ledger

	next      int
	collector *harness.BenchCollector
	cur       suitePass
	passes    []suitePass
}

func newSuiteRunner(seed uint64, dg digests, led *ledger) *suiteRunner {
	return &suiteRunner{order: shuffled(suiteIDs, seed, streamSuite), dg: dg, led: led}
}

// midPass reports whether a pass has started and not finished.
func (r *suiteRunner) midPass() bool { return r.next > 0 }

// step runs the pass's next experiment through harness.Experiment,
// serially. ctx carries a telemetry scope on the traced pass only.
func (r *suiteRunner) step(ctx context.Context) error {
	if r.next == 0 {
		r.collector = harness.NewBenchCollector("perfbench")
		r.cur = suitePass{byExp: make(map[string]time.Duration)}
	}
	cfg, restore, err := enterPhase(r.collector)
	if err != nil {
		return fmt.Errorf("suite: %w", err)
	}
	defer restore()
	r.led.config("suite", cfg)

	id := r.order[r.next]
	ectx, span := telemetry.StartSpan(ctx, "bench:experiment")
	span.SetAttrs(telemetry.String("experiment", id))
	start := time.Now()
	r.collector.Begin(id)
	tb, err := harness.Experiment(ectx, id, 0, harness.AttackOpts{})
	r.collector.End()
	elapsed := time.Since(start)
	span.EndErr(err)
	r.cur.byExp[id] = elapsed
	r.cur.wall += elapsed
	r.led.record("suite/"+id, err == nil && !tb.Degraded() && r.dg.check("suite/"+id, tb.String()), false)

	r.next++
	if r.next == len(r.order) {
		for _, e := range r.collector.Report().Experiments {
			for _, c := range e.Cells {
				r.cur.cells = append(r.cur.cells, time.Duration(c.WallNS))
			}
		}
		r.passes = append(r.passes, r.cur)
		r.next = 0
	}
	return nil
}

// runSuitePass runs one whole pass.
func runSuitePass(ctx context.Context, seed uint64, dg digests, led *ledger) (suitePass, error) {
	r := newSuiteRunner(seed, dg, led)
	for len(r.passes) == 0 {
		if err := r.step(ctx); err != nil {
			return suitePass{}, err
		}
	}
	return r.passes[0], nil
}
