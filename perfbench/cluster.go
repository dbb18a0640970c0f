package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"hammertime/internal/cluster"
	"hammertime/internal/harness"
	"hammertime/internal/sim"
	"hammertime/internal/telemetry"
)

// clusterIDs are the suite's heavy grids (E1, E3, E4, E5: ~85% of the
// suite's time), so the cold phase compares directly with the same grids
// run serially.
var clusterIDs = []string{"e1", "e3", "e4", "e5"}

// warmRounds is how often the traced run's warm phase repeats the grids.
const warmRounds = 25

// clusterRunner sends the grids through harness.Experiment with a
// dispatcher's grid delegate, one grid per step, so a run can interleave
// them with the other phases. Each cold pass runs on a fresh dispatcher
// with an empty cache; warm rounds repeat the grids on the first
// dispatcher whose cold pass finished. Every merged table is checked
// against the serial digest.
type clusterRunner struct {
	sys   *system
	order []string
	dg    digests
	led   *ledger

	next  int
	d     *cluster.Dispatcher // the cold pass in progress
	cur   time.Duration
	colds []time.Duration
	warmD *cluster.Dispatcher
	warm  []time.Duration
	all   []*cluster.Dispatcher
}

func newClusterRunner(sys *system, seed uint64, dg digests, led *ledger) *clusterRunner {
	return &clusterRunner{sys: sys, order: shuffled(clusterIDs, seed, streamCluster), dg: dg, led: led}
}

func (r *clusterRunner) midPass() bool { return r.next > 0 }

// coldStep runs the cold pass's next grid.
func (r *clusterRunner) coldStep(ctx context.Context) error {
	if r.next == 0 {
		r.d = r.sys.newDispatcher()
		r.all = append(r.all, r.d)
		r.cur = 0
	}
	elapsed, err := r.grid(ctx, r.d, "cold", r.order[r.next])
	if err != nil {
		return err
	}
	r.cur += elapsed
	r.next++
	if r.next == len(r.order) {
		r.colds = append(r.colds, r.cur)
		if r.warmD == nil {
			r.warmD = r.d
		}
		r.next = 0
	}
	return nil
}

// warmRound repeats every grid once on the warm dispatcher and records
// the round's mean grid latency; a no-op until the first cold pass has
// finished. The four grids differ several-fold in cache-hit cost, so a
// median over single grids would flip between two of them from run to
// run; the mean over a round does not.
func (r *clusterRunner) warmRound(ctx context.Context) error {
	if r.warmD == nil {
		return nil
	}
	var round time.Duration
	for _, id := range r.order {
		elapsed, err := r.grid(ctx, r.warmD, "warm", id)
		if err != nil {
			return err
		}
		round += elapsed
	}
	r.warm = append(r.warm, round/time.Duration(len(r.order)))
	return nil
}

func (r *clusterRunner) grid(ctx context.Context, d *cluster.Dispatcher, phase, id string) (time.Duration, error) {
	// Each in-process worker simulates its batch serially: two workers
	// on two cores, as two single-core hosts would.
	cfg, restore, err := enterPhase(nil)
	if err != nil {
		return 0, fmt.Errorf("cluster: %w", err)
	}
	defer restore()
	r.led.config("cluster", cfg)
	gctx, span := telemetry.StartSpan(ctx, "bench:"+phase)
	span.SetAttrs(telemetry.String("experiment", id))
	gctx = harness.WithGridDelegate(gctx, d.ForJob(id, 0, harness.AttackOpts{}))
	start := time.Now()
	tb, err := harness.Experiment(gctx, id, 0, harness.AttackOpts{})
	elapsed := time.Since(start)
	span.EndErr(err)
	r.led.record("cluster/"+phase, err == nil && !tb.Degraded() && r.dg.check("suite/"+id, tb.String()), false)
	return elapsed, nil
}

// close releases the dispatchers' caches and adds their retry, steal and
// hedge counts to the ledger.
func (r *clusterRunner) close() {
	for _, d := range r.all {
		var st sim.Stats
		d.MergeInto(&st)
		for _, name := range []string{"cluster.rpc.retries", "cluster.cells.stolen", "cluster.batches.hedged"} {
			r.led.extra(name, st.Counter(name))
		}
		d.Cache().Close()
	}
	r.all = nil
}

// clusterPass is one cold phase on a fresh dispatcher followed by the
// warm phase on the same dispatcher, with the dispatcher's counters after
// each.
type clusterPass struct {
	cold      time.Duration
	coldStats sim.Stats
	warmStats sim.Stats
	cacheGet  time.Duration
	cacheGets int
}

// runClusterPass runs one cold pass and warmRounds warm rounds. While the
// RPC timer is armed it also times cache lookups of every cell key the
// workers returned.
func runClusterPass(ctx context.Context, sys *system, seed uint64, dg digests, led *ledger) (clusterPass, error) {
	r := newClusterRunner(sys, seed, dg, led)
	defer r.close()
	var pass clusterPass
	for len(r.colds) == 0 {
		if err := r.coldStep(ctx); err != nil {
			return pass, err
		}
	}
	pass.cold = r.colds[0]
	r.warmD.MergeInto(&pass.coldStats)
	for i := 0; i < warmRounds; i++ {
		if err := r.warmRound(ctx); err != nil {
			return pass, err
		}
	}
	r.warmD.MergeInto(&pass.warmStats)
	if sys.rpc.armed.Load() {
		pass.cacheGet, pass.cacheGets = timeCacheGets(r.warmD.Cache(), sys.rpc.keys())
	}
	return pass, nil
}

// timeCacheGets times ResultCache.Get over keys, repeated until the
// measurement covers at least 20ms.
func timeCacheGets(c *cluster.ResultCache, keys []string) (time.Duration, int) {
	if len(keys) == 0 {
		return 0, 0
	}
	var total time.Duration
	n := 0
	for total < 20*time.Millisecond {
		start := time.Now()
		for _, k := range keys {
			if _, ok := c.Get(k); !ok {
				return 0, 0
			}
		}
		total += time.Since(start)
		n += len(keys)
	}
	return total, n
}

// keys returns every cell key in the recorded worker responses.
func (t *rpcTimer) keys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var keys []string
	for _, b := range t.bodies {
		var resp cluster.CellResponse
		if json.Unmarshal(b, &resp) != nil {
			continue
		}
		for _, c := range resp.Cells {
			keys = append(keys, c.Key)
		}
	}
	return keys
}
