package cpu

import (
	"testing"

	"hammertime/internal/addr"
	"hammertime/internal/cache"
	"hammertime/internal/dram"
	"hammertime/internal/memctrl"
)

func buildParts(t *testing.T) (*cache.Cache, *memctrl.Controller) {
	t.Helper()
	mod, err := dram.NewModule(dram.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := memctrl.NewController(memctrl.Config{
		Mapper:   addr.NewLineInterleave(mod.Geometry()),
		DRAM:     mod,
		OpenPage: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	llc, err := cache.New(cache.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return llc, mc
}

func fixedProgram(accs []Access) Program {
	i := 0
	return ProgramFunc(func() (Access, bool) {
		if i >= len(accs) {
			return Access{}, false
		}
		a := accs[i]
		i++
		return a, true
	})
}

func TestNewCoreValidates(t *testing.T) {
	llc, mc := buildParts(t)
	if _, err := NewCore(0, 1, nil, llc, mc); err == nil {
		t.Fatal("nil program accepted")
	}
	if _, err := NewCore(0, 1, fixedProgram(nil), nil, mc); err == nil {
		t.Fatal("nil cache accepted")
	}
}

func TestCoreCachesRepeatedAccess(t *testing.T) {
	llc, mc := buildParts(t)
	core, err := NewCore(0, 1, fixedProgram([]Access{{Line: 5}, {Line: 5}, {Line: 5}}), llc, mc)
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for {
		next, ok, err := core.Step(now)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		now = next
	}
	c := core.Counters()
	if c.Accesses != 3 || c.LLCMisses != 1 {
		t.Fatalf("accesses=%d misses=%d, want 3/1", c.Accesses, c.LLCMisses)
	}
	if !core.Done() {
		t.Fatal("core not done")
	}
}

func TestCoreFlushForcesDRAMAccess(t *testing.T) {
	llc, mc := buildParts(t)
	prog := fixedProgram([]Access{
		{Line: 5}, {Line: 5, Flush: true}, {Line: 5, Flush: true},
	})
	core, err := NewCore(0, 1, prog, llc, mc)
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for {
		next, ok, err := core.Step(now)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		now = next
	}
	c := core.Counters()
	if c.LLCMisses != 3 {
		t.Fatalf("misses = %d, want 3 (flush evicts every time)", c.LLCMisses)
	}
	if c.Flushes != 2 {
		t.Fatalf("flushes = %d", c.Flushes)
	}
}

func TestCoreDirtyFlushWritesBack(t *testing.T) {
	llc, mc := buildParts(t)
	prog := fixedProgram([]Access{
		{Line: 5, Write: true}, {Line: 5, Flush: true},
	})
	core, err := NewCore(0, 1, prog, llc, mc)
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for {
		next, ok, err := core.Step(now)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		now = next
	}
	if got := mc.Stats().Counter("mc.writes"); got != 1 {
		t.Fatalf("writebacks = %d, want 1", got)
	}
}

func TestCoreThinkTimeAdvancesClock(t *testing.T) {
	llc, mc := buildParts(t)
	core, err := NewCore(0, 1, fixedProgram([]Access{{Line: 1, Think: 5000}}), llc, mc)
	if err != nil {
		t.Fatal(err)
	}
	next, ok, err := core.Step(0)
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	if next < 5000 {
		t.Fatalf("next ready = %d, want >= think time", next)
	}
}

// missingAccesses returns n accesses to distinct lines starting at
// first, each of which misses the LLC, and the lines they touch.
func missingAccesses(first, n int) ([]Access, []uint64) {
	lines := make([]uint64, n)
	accs := make([]Access, n)
	for i := range accs {
		lines[i] = uint64((first + i) * 3)
		accs[i] = Access{Line: lines[i]}
	}
	return accs, lines
}

func runToEnd(t *testing.T, core *Core) {
	t.Helper()
	now := uint64(0)
	for {
		next, ok, err := core.Step(now)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return
		}
		now = next
	}
}

func checkSamples(t *testing.T, got, lines []uint64) {
	t.Helper()
	want := lines
	if len(want) > 256 {
		want = want[len(want)-256:]
	}
	if len(got) != len(want) {
		t.Fatalf("samples = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d = %d, want %d (last 256 misses, most recent last)", i, got[i], want[i])
		}
	}
}

// TestCoreSamplesCaptureMisses pins the sampling buffer's contract:
// Samples returns exactly the last sampleCap (256) misses in order,
// whatever the miss count relative to the buffer's 2*sampleCap
// compaction point, and drains the buffer.
func TestCoreSamplesCaptureMisses(t *testing.T) {
	for _, n := range []int{0, 1, 10, 255, 256, 257, 511, 512, 513, 767, 768, 1000, 2*256 + 37} {
		llc, mc := buildParts(t)
		accs, lines := missingAccesses(0, n)
		core, err := NewCore(0, 1, fixedProgram(accs), llc, mc)
		if err != nil {
			t.Fatal(err)
		}
		runToEnd(t, core)
		if got := core.Counters().LLCMisses; got != uint64(n) {
			t.Fatalf("n=%d: LLC misses = %d, want every access to miss", n, got)
		}
		checkSamples(t, core.Samples(), lines)
		if got := core.Samples(); len(got) != 0 {
			t.Fatalf("n=%d: Samples did not drain the buffer", n)
		}
	}
}

// TestCoreSamplesDrainThenRefill checks that a drained buffer reports
// only the misses since the drain, and that the slice handed out by an
// earlier drain is not overwritten by later misses.
func TestCoreSamplesDrainThenRefill(t *testing.T) {
	llc, mc := buildParts(t)
	var pending []Access
	core, err := NewCore(0, 1, ProgramFunc(func() (Access, bool) {
		if len(pending) == 0 {
			return Access{}, false
		}
		a := pending[0]
		pending = pending[1:]
		return a, true
	}), llc, mc)
	if err != nil {
		t.Fatal(err)
	}
	// missAndDrain runs n fresh misses on the same core and buffer (the
	// program ends after each batch, so done is reset) and drains.
	next := 0
	missAndDrain := func(n int) ([]uint64, []uint64) {
		var lines []uint64
		pending, lines = missingAccesses(next, n)
		next += n
		core.done = false
		runToEnd(t, core)
		return core.Samples(), lines
	}
	s1, lines1 := missAndDrain(600)
	kept := append([]uint64(nil), s1...)
	checkSamples(t, s1, lines1)
	s2, lines2 := missAndDrain(300)
	checkSamples(t, s2, lines2)
	s3, lines3 := missAndDrain(40)
	checkSamples(t, s3, lines3)
	checkSamples(t, s1, kept)
}

func TestCoreStepAfterDone(t *testing.T) {
	llc, mc := buildParts(t)
	core, err := NewCore(0, 1, fixedProgram(nil), llc, mc)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := core.Step(0); ok {
		t.Fatal("empty program stepped")
	}
	if _, ok, _ := core.Step(0); ok {
		t.Fatal("done core stepped again")
	}
}
