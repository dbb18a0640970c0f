package harness

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"hammertime/internal/report"
)

func TestCheckpointResumeSkipsCompletedCells(t *testing.T) {
	resetRobustness(t)
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	spec := GridSpec{ID: "t-ck", Config: "c1", Workers: 1}

	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	fn := func(_ context.Context, i int) (int, error) {
		calls.Add(1)
		return 3 * i, nil
	}
	run := runGrid(WithCheckpoint(context.Background(), ck), spec, 5, fn)
	if err := run.Err(); err != nil {
		t.Fatal(err)
	}
	if run.Restored != 0 || calls.Load() != 5 || ck.Added() != 5 {
		t.Fatalf("first run: restored=%d calls=%d added=%d", run.Restored, calls.Load(), ck.Added())
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Loaded() != 5 {
		t.Fatalf("reopened checkpoint holds %d cells, want 5", ck2.Loaded())
	}
	ctx2 := WithCheckpoint(context.Background(), ck2)
	calls.Store(0)
	again := runGrid(ctx2, spec, 5, fn)
	if err := again.Err(); err != nil {
		t.Fatal(err)
	}
	if again.Restored != 5 || calls.Load() != 0 {
		t.Fatalf("resume: restored=%d calls=%d, want 5 and 0", again.Restored, calls.Load())
	}
	for i := range again.Results {
		if again.Results[i] != run.Results[i] {
			t.Fatalf("cell %d: restored %d, computed %d", i, again.Results[i], run.Results[i])
		}
	}

	// A different config must never restore the stale cells.
	other := runGrid(ctx2, GridSpec{ID: "t-ck", Config: "c2", Workers: 1}, 5, fn)
	if err := other.Err(); err != nil {
		t.Fatal(err)
	}
	if other.Restored != 0 || calls.Load() != 5 {
		t.Fatalf("config change: restored=%d calls=%d, want 0 and 5", other.Restored, calls.Load())
	}

	// Anonymous grids (empty ID) never touch the checkpoint.
	calls.Store(0)
	anon := runGrid(ctx2, GridSpec{Workers: 1}, 3, fn)
	if err := anon.Err(); err != nil {
		t.Fatal(err)
	}
	if anon.Restored != 0 || calls.Load() != 3 {
		t.Fatalf("anonymous grid: restored=%d calls=%d", anon.Restored, calls.Load())
	}
}

// TestContextCheckpointScoped pins the per-job checkpoint path used by
// hammerd's durable job store: the checkpoint carried by the context is
// the one a grid consults and appends to, so concurrent daemon jobs each
// resume from their own file.
func TestContextCheckpointScoped(t *testing.T) {
	resetRobustness(t)
	dir := t.TempDir()
	spec := GridSpec{ID: "t-ctxck", Config: "c1", Workers: 1}

	jobPath := filepath.Join(dir, "job-1.ckpt")
	jobCk, err := OpenCheckpoint(jobPath)
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithCheckpoint(context.Background(), jobCk)
	var calls atomic.Int64
	fn := func(_ context.Context, i int) (int, error) {
		calls.Add(1)
		return 7 * i, nil
	}
	if err := runGrid(ctx, spec, 4, fn).Err(); err != nil {
		t.Fatal(err)
	}
	if jobCk.Added() != 4 {
		t.Fatalf("context checkpoint recorded %d cells, want 4", jobCk.Added())
	}
	if err := jobCk.Close(); err != nil {
		t.Fatal(err)
	}

	// A restarted job reopens its own file and resumes without
	// recomputing.
	jobCk2, err := OpenCheckpoint(jobPath)
	if err != nil {
		t.Fatal(err)
	}
	defer jobCk2.Close()
	calls.Store(0)
	again := runGrid(WithCheckpoint(context.Background(), jobCk2), spec, 4, fn)
	if err := again.Err(); err != nil {
		t.Fatal(err)
	}
	if again.Restored != 4 || calls.Load() != 0 {
		t.Fatalf("resume via context: restored=%d calls=%d, want 4 and 0", again.Restored, calls.Load())
	}
	// WithCheckpoint(nil) is a no-op.
	if noop := WithCheckpoint(context.Background(), nil); checkpointFrom(noop) != nil {
		t.Fatal("nil checkpoint must not be carried")
	}
}

func TestCheckpointTrimsTornTail(t *testing.T) {
	resetRobustness(t)
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	spec := GridSpec{ID: "t-torn", Config: "v1", Workers: 1}

	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := runGrid(WithCheckpoint(context.Background(), ck), spec, 4, func(_ context.Context, i int) (int, error) { return i, nil }).Err(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a SIGKILL mid-append: a record fragment without newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"deadbeef","grid":"t-torn","ce`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Loaded() != 4 {
		t.Fatalf("loaded %d cells from torn file, want 4", ck2.Loaded())
	}
	if err := ck2.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, clean) {
		t.Fatalf("torn tail not trimmed:\n%q\nwant\n%q", after, clean)
	}

	// A corrupt full line likewise stops the load without failing it.
	if err := os.WriteFile(path, append(append([]byte{}, clean...), []byte("not json\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	ck3, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck3.Close()
	if ck3.Loaded() != 4 {
		t.Fatalf("loaded %d cells past a corrupt line, want 4", ck3.Loaded())
	}
}

// TestE1ResumeByteIdentical is the acceptance test of the checkpoint
// design: an E1 run killed mid-grid (here: aborted by an injected cell
// failure) and restarted with -resume must produce a table byte-identical
// to an uninterrupted run's.
func TestE1ResumeByteIdentical(t *testing.T) {
	resetRobustness(t)
	defenses := []string{"none", "trr"}
	opts := AttackOpts{Horizon: 300_000, PagesPerTenant: 48, Parallelism: 1}

	render := func(tb *report.Table) []byte {
		var buf bytes.Buffer
		if err := tb.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// Baseline: uninterrupted, uncheckpointed.
	tb, err := E1Matrix(context.Background(), defenses, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := render(tb)

	// Interrupted run: cell 5 fails (strict mode aborts the grid), but
	// cells completed before it are already checkpointed.
	path := filepath.Join(t.TempDir(), "e1.ckpt")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(failCellEnv, "e1:5:error")
	if _, err := E1Matrix(WithCheckpoint(context.Background(), ck), defenses, 4, opts); err == nil {
		t.Fatal("injected failure did not abort the strict run")
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if ck.Added() == 0 {
		t.Fatal("interrupted run checkpointed no cells")
	}

	// Restart: the failpoint is gone, completed cells restore from the
	// checkpoint, the rest compute fresh.
	t.Setenv(failCellEnv, "")
	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Loaded() != ck.Added() {
		t.Fatalf("restart loaded %d cells, interrupted run wrote %d", ck2.Loaded(), ck.Added())
	}
	tb2, err := E1Matrix(WithCheckpoint(context.Background(), ck2), defenses, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(tb2); !bytes.Equal(got, want) {
		t.Errorf("resumed table differs from uninterrupted run:\n--- resumed ---\n%s\n--- baseline ---\n%s", got, want)
	}
}

// goldenCell is a cell result shaped like the experiments' own.
type goldenCell struct {
	Flips int     `json:"flips"`
	Rate  float64 `json:"rate"`
	Name  string  `json:"name"`
}

// writeGoldenCheckpoint records the cells testdata/checkpoint.jsonl was
// written from, in order; key 9f86… is recorded twice.
func writeGoldenCheckpoint(ck *Checkpoint) {
	ck.record("e1", 0, "9f86d081deadbeef", goldenCell{Flips: 3, Rate: 0.25, Name: "trr"})
	ck.record("e1", 1, "0123456789abcdef", goldenCell{Rate: 1e-9, Name: "para<n=4>"})
	ck.record("e5", 7, "fedcba9876543210", []uint64{1, 2, 18446744073709551615})
	ck.record("e1", 0, "9f86d081deadbeef", goldenCell{Flips: 4, Rate: 0.5, Name: "trr"})
}

// TestCheckpointGoldenBytes pins the on-disk checkpoint format:
// testdata/checkpoint.jsonl holds the exact bytes the checkpoint writer
// produced before it moved onto internal/journal. Today's writer must
// produce the same bytes, and today's loader must restore that file
// (last record of a key wins) without touching it.
func TestCheckpointGoldenBytes(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "checkpoint.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	written := filepath.Join(dir, "written.jsonl")
	ck, err := OpenCheckpoint(written)
	if err != nil {
		t.Fatal(err)
	}
	writeGoldenCheckpoint(ck)
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(written); !bytes.Equal(got, golden) {
		t.Fatalf("checkpoint bytes changed:\n%s\nwant\n%s", got, golden)
	}

	loaded := filepath.Join(dir, "golden.jsonl")
	if err := os.WriteFile(loaded, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	ck2, err := OpenCheckpoint(loaded)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Loaded() != 4 {
		t.Fatalf("loaded %d records, want 4", ck2.Loaded())
	}
	for key, want := range map[string]string{
		"9f86d081deadbeef": `{"flips":4,"rate":0.5,"name":"trr"}`,
		"0123456789abcdef": `{"flips":0,"rate":1e-9,"name":"para\u003cn=4\u003e"}`,
		"fedcba9876543210": `[1,2,18446744073709551615]`,
	} {
		if raw, ok := ck2.lookup(key); !ok || string(raw) != want {
			t.Fatalf("key %s restored %s (ok=%v), want %s", key, raw, ok, want)
		}
	}
	if got, _ := os.ReadFile(loaded); !bytes.Equal(got, golden) {
		t.Fatalf("loading rewrote an intact checkpoint:\n%s", got)
	}
}
