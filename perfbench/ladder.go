package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"hammertime/internal/addr"
	"hammertime/internal/attack"
	"hammertime/internal/cache"
	"hammertime/internal/core"
	"hammertime/internal/defense"
	"hammertime/internal/dram"
	"hammertime/internal/harness"
	"hammertime/internal/memctrl"
	"hammertime/internal/obs"
	"hammertime/internal/sim"
	"hammertime/internal/telemetry"
	"hammertime/internal/trace"
)

// ladderCell is one grid cell of the suite whose attacker stream the
// traced run replays layer by layer.
type ladderCell struct {
	name    string
	spec    core.MachineSpec
	defense func() core.Defense
	kind    attack.Kind
	opts    harness.AttackOpts
}

// ladderCells are E1's none × double-sided cell (row-buffer conflicts
// against an undefended LPDDR4 module) and E5's trr(n=4) × many-sided(12)
// cell (the TRRespass bypass, with in-DRAM mitigation work), both at the
// paper horizons.
func ladderCells() []ladderCell {
	e5 := core.DefaultSpec()
	e5.Profile = dram.DDR4Old()
	return []ladderCell{
		{
			name:    "e1/none/double-sided",
			spec:    harness.E1Spec(),
			defense: func() core.Defense { return defense.None{} },
			kind:    attack.Catalog(12)[1],
			opts:    harness.AttackOpts{},
		},
		{
			name:    "e5/trr(n=4)/many-sided(12)",
			spec:    e5,
			defense: func() core.Defense { return defense.TRR{Config: dram.DefaultTRR()} },
			kind:    attack.Kind{Name: "many-sided(12)", Sided: 12},
			opts:    harness.AttackOpts{Horizon: 16_000_000},
		},
	}
}

// actSink keeps the controller-issued ACTs of a run (Arg=1; mitigation
// cures carry Arg=0 and are not part of the request stream).
type actSink struct{ acts []obs.Event }

func (s *actSink) Record(ev obs.Event) {
	if ev.Kind == obs.KindACT && ev.Arg == 1 {
		s.acts = append(s.acts, ev)
	}
}

func (s *actSink) Flush() error { return nil }

// ladderCounters are the simulated counts the ladder reports; a change
// that only speeds up the simulator must leave every one unchanged.
var ladderCounters = []string{"mc.requests", "dram.act", "mc.row_hits", "mc.throttle_cycles", "dram.ref", "dram.flips", "dram.trr_mitigations"}

// ladderResult accumulates the ladder over its cells.
type ladderResult struct {
	runTime  time.Duration // machine.run spans of the timed cell runs
	counts   map[string]int64
	perOp    map[string]*opTime
	hits     uint64
	accesses uint64
}

// runLadder runs each ladder cell twice: once as the suite runs it, inside
// a telemetry scope, for host time and simulated counts, and once with the
// attack trace and an ACT recorder attached. Then it replays the recorded
// streams against each layer's public entry point. The recording run must
// reproduce the timed run's counts: recording is observer-only.
func runLadder(ctx context.Context, tracer *telemetry.Tracer, led *ledger) (ladderResult, error) {
	res := ladderResult{counts: make(map[string]int64), perOp: make(map[string]*opTime)}
	for _, cell := range ladderCells() {
		before := len(tracer.Snapshot())
		cctx, span := telemetry.StartSpan(ctx, "bench:ladder-cell")
		span.SetAttrs(telemetry.String("cell", cell.name))
		out, err := harness.RunAttackCtx(cctx, cell.spec, cell.defense(), cell.kind, cell.opts)
		span.EndErr(err)
		if err != nil {
			led.record("ladder/run", false, false)
			return res, fmt.Errorf("ladder %s: %w", cell.name, err)
		}
		led.record("ladder/run", true, false)
		for _, s := range tracer.Snapshot()[before:] {
			if s.Name == "machine.run" {
				res.runTime += s.End.Sub(s.Start)
			}
		}

		var stream bytes.Buffer
		acts := &actSink{}
		rec := obs.NewRecorder(acts)
		rec.SetKinds(obs.KindACT)
		opts := cell.opts
		opts.AttackTrace = &stream
		opts.Observer = rec
		recorded, err := harness.RunAttackCtx(context.Background(), cell.spec, cell.defense(), cell.kind, opts)
		same := err == nil
		for _, name := range ladderCounters {
			same = same && recorded.Result.Stats.Counter(name) == out.Result.Stats.Counter(name)
		}
		led.record("ladder/record", same, false)
		if !same {
			return res, fmt.Errorf("ladder %s: recording changed the simulated counts", cell.name)
		}
		for _, name := range ladderCounters {
			res.counts[name] += out.Result.Stats.Counter(name)
		}
		events, err := trace.Read(&stream)
		if err != nil {
			return res, fmt.Errorf("ladder %s: %w", cell.name, err)
		}
		if err := replay(ctx, cell, events, acts.acts, &res); err != nil {
			led.record("ladder/replay", false, false)
			return res, fmt.Errorf("ladder %s: %w", cell.name, err)
		}
		led.record("ladder/replay", true, false)
	}
	return res, nil
}

// ladderReps is how many times each layer replays a stream, each time on
// fresh state; the median per-call time is kept.
const ladderReps = 5

// replay times each layer on the cell's recorded streams.
func replay(ctx context.Context, cell ladderCell, events []trace.Event, acts []obs.Event, res *ladderResult) error {
	geom := cell.spec.Geometry
	li := addr.NewLineInterleave(geom)
	part, err := addr.NewPartition(geom, 4)
	if err != nil {
		return err
	}
	iso, err := addr.NewSubarrayIsolated(li, part)
	if err != nil {
		return err
	}
	lines := make([]uint64, len(events))
	for i, ev := range events {
		lines[i] = ev.Line
	}
	var sink int
	mapper := func(m addr.Mapper) func() error {
		return func() error {
			for _, l := range lines {
				sink += m.Map(l).Row
			}
			return nil
		}
	}
	if err := measure(ctx, res, "addr.map_ns.line_interleave", len(lines), nil, mapper(li)); err != nil {
		return err
	}
	if err := measure(ctx, res, "addr.map_ns.subarray", len(lines), nil, mapper(iso)); err != nil {
		return err
	}

	// The cache sees the core's sequence: a flush, then the access. The
	// misses (and evicted dirty lines) become the controller's requests.
	var c *cache.Cache
	newCache := func() error {
		var err error
		c, err = cache.New(cell.spec.Cache)
		return err
	}
	err = measure(ctx, res, "cache.access_ns", len(events), newCache, func() error {
		for _, ev := range events {
			if ev.Flush {
				c.Flush(ev.Line)
			}
			c.Access(ev.Line, ev.Write)
		}
		return nil
	})
	if err != nil {
		return err
	}
	hits, misses, _, _ := c.Stats()
	res.hits += hits
	res.accesses += hits + misses
	reqs, err := cacheMisses(cell.spec.Cache, events)
	if err != nil {
		return err
	}

	var m *core.Machine
	newMachine := func() error {
		var err error
		m, err = core.BuildWithDefense(cell.spec, cell.defense())
		return err
	}
	err = measure(ctx, res, "memctrl.serve_ns", len(reqs), newMachine, func() error {
		var now uint64
		for _, r := range reqs {
			out, err := m.MC.ServeRequest(r.req, now)
			if err != nil {
				return err
			}
			now = out.Completion + r.think
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = measure(ctx, res, "dram.activate_ns", len(acts), newMachine, func() error {
		for _, a := range acts {
			if _, err := m.DRAM.Activate(a.Bank, a.Row, a.Cycle, a.Domain); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	var st sim.Stats
	err = measure(ctx, res, "sim.stats_add_ns", len(events), nil, func() error {
		for range events {
			st.Add("mc.requests", 1)
		}
		return nil
	})
	if err != nil {
		return err
	}
	ref := st.CounterRef("mc.requests")
	err = measure(ctx, res, "sim.counter_ref_ns", len(events), nil, func() error {
		for range events {
			*ref++
		}
		return nil
	})
	ladderSink += sink
	return err
}

// ladderSink keeps the mapper results live.
var ladderSink int

// request is one controller request derived from the replayed stream.
type request struct {
	req   memctrl.Request
	think uint64
}

// cacheMisses replays events through a fresh cache the way cpu.Core does
// and returns the requests that reach the memory controller.
func cacheMisses(cfg cache.Config, events []trace.Event) ([]request, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return nil, err
	}
	const attacker = 1
	src := memctrl.Source{Kind: memctrl.SourceCPU}
	var reqs []request
	for _, ev := range events {
		if ev.Flush {
			if present, dirty := c.Flush(ev.Line); present && dirty {
				reqs = append(reqs, request{req: memctrl.Request{Line: ev.Line, Write: true, Domain: attacker, Source: src}})
			}
		}
		r := c.Access(ev.Line, ev.Write)
		if r.Hit {
			continue
		}
		if r.Writeback {
			reqs = append(reqs, request{req: memctrl.Request{Line: r.WritebackLine, Write: true, Domain: attacker, Source: src}})
		}
		reqs = append(reqs, request{req: memctrl.Request{Line: ev.Line, Domain: attacker, Source: src}, think: ev.Think})
	}
	return reqs, nil
}

// measure runs body ladderReps times inside a benchmark span, each after
// a fresh reset, and records the median ns per call over n calls.
func measure(ctx context.Context, res *ladderResult, layer string, n int, reset, body func() error) error {
	if n == 0 {
		return fmt.Errorf("%s: empty stream", layer)
	}
	perCall := make([]float64, 0, ladderReps)
	for r := 0; r < ladderReps; r++ {
		if reset != nil {
			if err := reset(); err != nil {
				return err
			}
		}
		_, span := telemetry.StartSpan(ctx, "bench:"+layer)
		start := time.Now()
		err := body()
		elapsed := time.Since(start)
		span.EndErr(err)
		if err != nil {
			return fmt.Errorf("%s: %w", layer, err)
		}
		perCall = append(perCall, float64(elapsed.Nanoseconds())/float64(n))
	}
	sort.Float64s(perCall)
	t := res.perOp[layer]
	if t == nil {
		t = &opTime{}
		res.perOp[layer] = t
	}
	t.ns += perCall[len(perCall)/2] * float64(n)
	t.calls += n
	return nil
}

// opTime is one layer's replay time summed over the ladder cells.
type opTime struct {
	ns    float64
	calls int
}

func (t *opTime) perCall() float64 { return t.ns / float64(t.calls) }
