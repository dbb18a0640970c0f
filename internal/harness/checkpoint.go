package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"

	"hammertime/internal/core"
	"hammertime/internal/journal"
	"hammertime/internal/sim"
)

// Checkpoint persists completed grid cells as JSON lines so an
// interrupted run resumes instead of recomputing. One record per cell:
//
//	{"key":"9f86d081deadbeef","grid":"e1","cell":17,"result":<json>}
//
// key is an FNV-64a hash of (grid ID, grid config, DeterminismEpoch,
// machine seed, cell index): a run with a different horizon, sweep, seed
// or RNG epoch never restores a stale cell. The file is an
// internal/journal: records are appended as cells complete, so a SIGKILL
// loses at most the in-flight cells, and a torn tail is trimmed at open.
// Results are exact JSON round trips of the cell values, so a resumed
// run's tables are byte-identical to an uninterrupted run's.
type Checkpoint struct {
	j      *journal.Journal
	mu     sync.Mutex
	done   map[string]json.RawMessage
	loaded int // fixed at open
	added  int
}

// ckRecord is the wire form of one checkpointed cell. Grid and Cell are
// informational (debugging a checkpoint by eye); lookups go by Key.
type ckRecord struct {
	Key    string          `json:"key"`
	Grid   string          `json:"grid"`
	Cell   int             `json:"cell"`
	Result json.RawMessage `json:"result"`
}

// OpenCheckpoint opens (creating if needed) a checkpoint file, loads its
// valid records (the last record of a key wins), and positions it for
// appending. A torn or corrupt tail — the signature of a killed run — is
// truncated away so subsequent appends produce a clean file.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	ck := &Checkpoint{done: make(map[string]json.RawMessage)}
	j, err := journal.Open(path, func(line []byte, _ int64) bool {
		var rec ckRecord
		if json.Unmarshal(line, &rec) != nil || rec.Key == "" {
			return false
		}
		ck.done[rec.Key] = rec.Result
		ck.loaded++
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	ck.j = j
	return ck, nil
}

// Loaded returns how many completed cells the file held at open.
func (c *Checkpoint) Loaded() int { return c.loaded }

// Added returns how many cells this run appended.
func (c *Checkpoint) Added() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.added
}

// Err returns the first error encountered while recording cells. A
// checkpoint that cannot be written must fail the run loudly — a
// silently truncated checkpoint would resume wrong.
func (c *Checkpoint) Err() error { return c.j.Err() }

// Close closes the file, reporting the sticky write error first.
func (c *Checkpoint) Close() error { return c.j.Close() }

// lookup returns the recorded result for key, if any.
func (c *Checkpoint) lookup(key string) (json.RawMessage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	raw, ok := c.done[key]
	return raw, ok
}

// record appends one completed cell. Write errors are sticky and
// surfaced by Err/Close; the in-memory map is updated regardless so the
// current run stays consistent.
func (c *Checkpoint) record(grid string, cell int, key string, result any) {
	raw, err := json.Marshal(result)
	var line []byte
	if err == nil {
		line, err = json.Marshal(ckRecord{Key: key, Grid: grid, Cell: cell, Result: raw})
	}
	if err != nil {
		c.j.Fail(fmt.Errorf("checkpoint: %s cell %d: %w", grid, cell, err))
		return
	}
	c.mu.Lock()
	c.done[key] = raw
	c.added++
	c.mu.Unlock()
	c.j.Append(line)
}

// ckContextKey carries a run's checkpoint through a context.
type ckContextKey struct{}

// WithCheckpoint returns ctx carrying a checkpoint that identified grids
// consult and append to. The checkpoint is scoped to the run, never to
// the process: hammerd threads each job's own checkpoint here so
// concurrent jobs never share (or clobber) resume state, and the CLIs
// thread their -resume file the same way. A nil checkpoint returns ctx
// unchanged.
func WithCheckpoint(ctx context.Context, ck *Checkpoint) context.Context {
	if ck == nil {
		return ctx
	}
	return context.WithValue(ctx, ckContextKey{}, ck)
}

// checkpointFrom returns the context-scoped checkpoint, or nil.
func checkpointFrom(ctx context.Context) *Checkpoint {
	ck, _ := ctx.Value(ckContextKey{}).(*Checkpoint)
	return ck
}

// CellKey hashes everything that determines a cell's result — the FNV-64a
// of (grid ID, grid config, DeterminismEpoch, machine seed, cell index),
// rendered as 16 lowercase hex digits. The machine seed enters via
// core.DefaultSpec (experiments build their machines from it); grids that
// vary the seed must fold it into Config.
//
// The key is a public contract: besides checkpoint resume it is the
// shard and content-address of the distributed cluster (internal/cluster)
// — the coordinator partitions cells by it, the result cache stores
// under it, and workers echo it back so a config/epoch/seed skew between
// nodes is detected instead of silently merging mismatched results.
// TestCellKeyGolden pins the exact hash; changing the format or any
// input invalidates every checkpoint and cache on disk.
func CellKey(spec GridSpec, cell int) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|epoch=%d|seed=%d|cell=%d",
		spec.ID, spec.Config, sim.DeterminismEpoch, core.DefaultSpec().Seed, cell)
	return fmt.Sprintf("%016x", h.Sum64())
}
