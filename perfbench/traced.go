package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"hammertime/internal/harness"
	"hammertime/internal/obs"
	"hammertime/internal/telemetry"
)

// runTraced is the per-layer run. Each phase runs once untraced and once
// inside a telemetry scope; the per-layer numbers come from the traced
// pass (spans the program emits plus the benchmark's own spans around its
// calls), and trace_overhead.<phase> is traced over untraced wall time.
// The layer ladder follows. Every span is written to
// <out>/trace-<workload>-<seed>.jsonl.
func runTraced(ctx context.Context, sys *system, seed uint64, dg digests, led *ledger, m metrics, out, workload string) error {
	tracer := telemetry.NewTracer()
	tctx := telemetry.NewContext(ctx, &telemetry.Scope{Tracer: tracer})

	plain, err := runSuitePass(ctx, seed, dg, led)
	if err != nil {
		return err
	}
	tp, err := runSuitePass(tctx, seed, dg, led)
	if err != nil {
		return err
	}
	suiteSpans := tracer.Snapshot()
	for _, id := range suiteIDs {
		m.set("harness."+id+"_s", "s", secs(tp.byExp[id]))
	}
	cells, overhead, runTime := cellOverhead(suiteSpans)
	m.set("harness.cells", "count", float64(cells))
	m.set("harness.cell_overhead_ms.p50", "ms", percentile(overhead, 0.5))
	m.set("harness.cell_overhead_ms.p90", "ms", percentile(overhead, 0.9))
	m.set("core.run_s", "s", secs(runTime))
	m.set("trace_overhead.suite", "ratio", tp.wall.Seconds()/plain.wall.Seconds())

	minJobs := samplesFor(0.9)
	pd := newDaemonRunner(sys, seed, false, dg, led)
	defer pd.close()
	if err := pd.slice(ctx, minJobs); err != nil {
		return err
	}
	td := newDaemonRunner(sys, seed, true, dg, led)
	defer td.close()
	if err := td.slice(tctx, minJobs); err != nil {
		return err
	}
	if len(pd.jobs) == 0 || len(td.jobs) == 0 {
		return fmt.Errorf("daemon: no job completed")
	}
	var submit, queued, run, over, first, result, fetch []float64
	spans := 0
	for _, j := range td.jobs {
		submit = append(submit, ms(j.submit))
		queued = append(queued, ms(j.queued))
		run = append(run, ms(j.run))
		over = append(over, ms(j.latency-j.run))
		first = append(first, ms(j.firstSSE))
		result = append(result, ms(j.result))
		fetch = append(fetch, ms(j.traceGet))
		spans += j.spans
	}
	journal, err := dirBytes(filepath.Join(sys.dir, "state"))
	if err != nil {
		return err
	}
	m.set("serve.submit_ms", "ms", median(submit))
	m.set("serve.queue_wait_ms", "ms", median(queued))
	m.set("serve.run_ms", "ms", median(run))
	m.set("serve.overhead_ms.p50", "ms", percentile(over, 0.5))
	m.set("serve.overhead_ms.p90", "ms", percentile(over, 0.9))
	m.set("serve.first_sse_ms", "ms", median(first))
	m.set("serve.result_ms", "ms", median(result))
	m.set("serve.journal_bytes", "bytes", float64(journal))
	m.set("serve.shed", "count", float64(pd.shed+td.shed))
	m.set("telemetry.spans_per_job", "count", float64(spans)/float64(len(td.jobs)))
	m.set("telemetry.trace_fetch_ms", "ms", median(fetch))
	perJob := func(p *daemonRunner) float64 { return p.wall.Seconds() / float64(len(p.jobs)) }
	m.set("trace_overhead.daemon", "ratio", perJob(td)/perJob(pd))

	pc, err := runClusterPass(ctx, sys, seed, dg, led)
	if err != nil {
		return err
	}
	// One cold phase makes ~30 worker RPCs; the traced passes repeat
	// until the RPC p90 has ten samples beyond it.
	sys.rpc.armed.Store(true)
	sys.workerTime.armed.Store(true)
	var tcs []clusterPass
	var tcold []float64
	for sys.rpc.count() < samplesFor(0.9) {
		tc, err := runClusterPass(tctx, sys, seed, dg, led)
		if err != nil {
			return err
		}
		tcs = append(tcs, tc)
		tcold = append(tcold, secs(tc.cold))
	}
	sys.rpc.armed.Store(false)
	sys.workerTime.armed.Store(false)
	tc := tcs[0]
	rpcs := sys.rpc.take()
	work := sys.workerTime.take()
	if len(rpcs) == 0 || len(work) == 0 {
		return fmt.Errorf("cluster: no worker RPC was timed")
	}
	var rpcSum, workSum time.Duration
	for _, d := range rpcs {
		rpcSum += d
	}
	for _, d := range work {
		workSum += d
	}
	st := &tc.warmStats
	m.set("cluster.rpc_ms.p50", "ms", percentile(msAll(rpcs), 0.5))
	m.set("cluster.rpc_ms.p90", "ms", percentile(msAll(rpcs), 0.9))
	m.set("cluster.worker_ms", "ms", median(msAll(work)))
	m.set("cluster.wire_ms", "ms", ms(rpcSum/time.Duration(len(rpcs))-workSum/time.Duration(len(work))))
	var dispatched int64
	for _, p := range tcs {
		dispatched += p.warmStats.Counter("cluster.cells.dispatched")
	}
	m.set("cluster.cells_per_rpc", "count", float64(dispatched)/float64(len(rpcs)))
	m.set("cluster.rounds", "count", float64(st.Counter("cluster.dispatch.rounds")))
	m.set("cluster.cells_dispatched", "count", float64(st.Counter("cluster.cells.dispatched")))
	m.set("cluster.cells_audited", "count", float64(st.Counter("cluster.cells.audited")))
	m.set("cluster.stolen", "count", float64(st.Counter("cluster.cells.stolen")))
	m.set("cluster.hedged", "count", float64(st.Counter("cluster.batches.hedged")))
	hits := st.Counter("cluster.cache.hits") - tc.coldStats.Counter("cluster.cache.hits")
	misses := st.Counter("cluster.cache.misses") - tc.coldStats.Counter("cluster.cache.misses")
	m.set("cluster.cache_hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	if tc.cacheGets == 0 {
		return fmt.Errorf("cluster: no cache lookup was timed")
	}
	m.set("cluster.cache_get_ns", "ns", float64(tc.cacheGet.Nanoseconds())/float64(tc.cacheGets))
	var serial time.Duration
	for _, id := range clusterIDs {
		serial += plain.byExp[id]
	}
	m.set("cluster.vs_serial", "ratio", pc.cold.Seconds()/serial.Seconds())
	m.set("trace_overhead.cluster", "ratio", median(tcold)/pc.cold.Seconds())

	lr, err := runLadder(tctx, tracer, led)
	if err != nil {
		return err
	}
	m.set("core.host_ns_per_request", "ns", float64(lr.runTime.Nanoseconds())/float64(lr.counts["mc.requests"]))
	for layer, t := range lr.perOp {
		m.set(layer, "ns", t.perCall())
	}
	m.set("cache.hit_ratio", "ratio", float64(lr.hits)/float64(lr.accesses))
	m.set("memctrl.requests", "count", float64(lr.counts["mc.requests"]))
	m.set("memctrl.acts", "count", float64(lr.counts["dram.act"]))
	m.set("memctrl.row_hit_ratio", "ratio", float64(lr.counts["mc.row_hits"])/float64(lr.counts["mc.requests"]))
	m.set("memctrl.throttle_cycles", "count", float64(lr.counts["mc.throttle_cycles"]))
	m.set("dram.refs", "count", float64(lr.counts["dram.ref"]))
	m.set("dram.flips", "count", float64(lr.counts["dram.flips"]))
	m.set("dram.trr_mitigations", "count", float64(lr.counts["dram.trr_mitigations"]))

	return writeTrace(filepath.Join(out, fmt.Sprintf("trace-%s-%d.jsonl", workload, seed)), tracer)
}

// cellOverhead returns the number of "cell" spans, each cell's self time
// outside its children (the machine.run spans; what is left is the
// machine build, tenant set-up and attack planning plus the grid's guard,
// checkpoint and telemetry work around the simulation) and the summed
// machine.run time.
func cellOverhead(spans []telemetry.SpanSnap) (cells int, overheadMS []float64, run time.Duration) {
	children := make(map[telemetry.SpanID][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
		if s.Name == "machine.run" {
			run += s.End.Sub(s.Start)
		}
	}
	for _, s := range spans {
		if s.Name != "cell" {
			continue
		}
		cells++
		overheadMS = append(overheadMS, ms(selfTime(interval{s.Start, s.End}, children[s.ID])))
	}
	return cells, overheadMS, run
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// writeTrace exports every span of the traced run as JSON lines.
func writeTrace(path string, tracer *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	j := obs.NewJSONL(f)
	telemetry.ExportJSONL(j, tracer.Snapshot())
	if err := j.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeDigests runs every checked table once, serially, and writes the
// SHA-256 of each as the digest file.
func writeDigests(path string) error {
	harness.SetParallelism(1)
	defer harness.SetParallelism(0)
	d := digests{}
	table := func(id string, horizon uint64) (string, error) {
		tb, err := harness.Experiment(context.Background(), id, horizon, harness.AttackOpts{})
		if err != nil {
			return "", fmt.Errorf("%s: %w", id, err)
		}
		return tb.String(), nil
	}
	for _, id := range suiteIDs {
		t, err := table(id, 0)
		if err != nil {
			return err
		}
		d["suite/"+id] = sha(t)
	}
	for _, j := range daemonMenu {
		t, err := table(j.experiment, j.horizon)
		if err != nil {
			return err
		}
		d[j.digestKey()] = sha(t)
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
