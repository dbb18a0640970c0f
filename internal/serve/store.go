package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"hammertime/internal/journal"
)

// The persistent job store behind hammerd's -state-dir. The paper's
// evaluation grids are minutes-long batch jobs; a daemon that loses
// every accepted job on a crash forces clients to resubmit and the
// simulator to recompute. The store makes the registry durable with the
// same machinery the harness already trusts for cells:
//
//   - jobs.jsonl is an append-only journal (internal/journal) of job
//     snapshots. Every lifecycle transition (queued, running,
//     done/failed/cancelled) appends one full JobRecord line, so the
//     last record per job id is the job's state at the instant the
//     daemon died.
//
//   - checkpoints/<job-id>.ckpt is the job's harness checkpoint
//     (FNV-keyed JSONL of completed grid cells), threaded into the
//     job's run via harness.WithCheckpoint. A job found "running" or
//     "queued" at startup is an orphan of the previous process: the
//     manager resubmits it under the same id and trace, and the grid
//     restores every cell the dead process completed — the resumed
//     table is byte-identical to an uninterrupted run because restored
//     cells are exact JSON round trips (see DESIGN.md, "Durable jobs").
//
// The journal is compacted at open (one surviving record per job,
// oldest first) so it stays proportional to the registry rather than to
// the daemon's lifetime submission count; the in-memory registry itself
// is bounded by the manager's retention sweep.

// JobRecord is the journaled snapshot of one job — everything needed to
// rebuild its registry entry (terminal jobs) or resubmit it (orphans).
type JobRecord struct {
	ID        string     `json:"id"`
	Client    string     `json:"client,omitempty"`
	Request   JobRequest `json:"request"`
	State     JobState   `json:"state"`
	TraceID   string     `json:"trace_id,omitempty"`
	Restarts  int        `json:"restarts,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   time.Time  `json:"started,omitempty"`
	Finished  time.Time  `json:"finished,omitempty"`
	Table     string     `json:"table,omitempty"`
	Error     string     `json:"error,omitempty"`
}

// Store owns the journal file and the checkpoint directory. Safe for
// concurrent use: sessions journal transitions while HTTP handlers
// submit.
type Store struct {
	dir string
	j   *journal.Journal // sticky: first append or compaction failure

	mu    sync.Mutex
	last  map[string]JobRecord
	order []string // job ids by first appearance (journal order)
}

// storeJournal is the journal's file name inside the state dir.
const storeJournal = "jobs.jsonl"

// OpenStore opens (creating if needed) the state directory, replays the
// journal, and compacts it to one line per job. The returned store's
// Records reflect the previous process's registry at the moment it
// died; a torn final line — the signature of a SIGKILL mid-append — is
// dropped, and any line after the first corrupt one is ignored: a
// journal that lies once cannot be trusted to order what follows.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "checkpoints"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, last: make(map[string]JobRecord)}
	j, err := journal.Open(filepath.Join(dir, storeJournal), func(line []byte, _ int64) bool {
		var rec JobRecord
		if json.Unmarshal(line, &rec) != nil || rec.ID == "" {
			return false
		}
		s.remember(rec)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.j = j
	if err := s.Compact(); err != nil {
		j.Close()
		return nil, err
	}
	return s, nil
}

// remember makes rec the job's current record. Caller holds s.mu (or
// owns s exclusively, during replay).
func (s *Store) remember(rec JobRecord) {
	if _, seen := s.last[rec.ID]; !seen {
		s.order = append(s.order, rec.ID)
	}
	s.last[rec.ID] = rec
}

// Compact rewrites the journal to the current in-memory view (one line
// per surviving job, journal order) — at open, and again after the
// manager's recovery applies retention, so jobs evicted by Forget
// actually leave the disk instead of being re-filtered at every restart
// forever. A failed rewrite is sticky: later appends report it through
// Err instead of vanishing.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	lines := make([][]byte, 0, len(s.order))
	for _, id := range s.order {
		line, err := json.Marshal(s.last[id])
		if err != nil {
			return fmt.Errorf("store: compact %s: %w", id, err)
		}
		lines = append(lines, line)
	}
	if err := s.j.Rewrite(lines); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	return nil
}

// Len returns the number of distinct jobs in the journal.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.last)
}

// Records returns the last journaled record of every job, in journal
// (submission) order.
func (s *Store) Records() []JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobRecord, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.last[id])
	}
	return out
}

// Append journals one job snapshot. Each record is a single write of a
// full line, so concurrent appends never interleave and a kill tears at
// most the final line. Write errors are sticky and surfaced by Err —
// the in-memory view stays consistent regardless, so the running daemon
// keeps serving; only durability across the next restart is lost.
func (s *Store) Append(rec JobRecord) {
	line, err := json.Marshal(rec)
	if err != nil {
		s.j.Fail(fmt.Errorf("store: job %s: %w", rec.ID, err))
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.remember(rec)
	s.j.Append(line)
}

// Forget drops a job from the store's in-memory view so the next
// compaction (at restart) omits it. The manager's retention sweep calls
// this alongside registry eviction; nothing is rewritten now — the
// journal stays append-only while the daemon lives.
func (s *Store) Forget(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.last[id]; !ok {
		return
	}
	delete(s.last, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// Err returns the first append or compaction failure, if any.
func (s *Store) Err() error { return s.j.Err() }

// Close closes the journal, reporting the sticky failure first.
func (s *Store) Close() error { return s.j.Close() }

// CheckpointPath returns the per-job harness checkpoint path. Job ids
// are daemon-minted ("job-N"), never client input, so they are safe as
// file names.
func (s *Store) CheckpointPath(jobID string) string {
	return filepath.Join(s.dir, "checkpoints", jobID+".ckpt")
}

// RemoveCheckpoint deletes a job's checkpoint file (missing is fine):
// a terminal job never resumes, so its cell-level state is dead weight.
func (s *Store) RemoveCheckpoint(jobID string) {
	_ = os.Remove(s.CheckpointPath(jobID))
}

// SweepCheckpoints removes checkpoint files whose job id is not in
// keep — debris of jobs that reached a terminal state (or were evicted)
// without getting to delete their checkpoint before the process died.
func (s *Store) SweepCheckpoints(keep map[string]bool) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "checkpoints"))
	if err != nil {
		return
	}
	for _, e := range entries {
		id := strings.TrimSuffix(e.Name(), ".ckpt")
		if id == e.Name() || keep[id] {
			continue
		}
		_ = os.Remove(filepath.Join(s.dir, "checkpoints", e.Name()))
	}
}

// applyRetention filters terminal records the same way the manager's
// in-memory sweep does (retentionEvicts), so a restart does not
// resurrect jobs the running daemon would already have evicted.
// Non-terminal records (the orphans to resume) always survive. Returns
// the surviving records in journal order.
func applyRetention(recs []JobRecord, now time.Time, age time.Duration, max int) []JobRecord {
	var terminal []int
	var finished []time.Time
	for i, rec := range recs {
		if rec.State.Terminal() {
			terminal = append(terminal, i)
			finished = append(finished, rec.Finished)
		}
	}
	drop := make(map[int]bool)
	for _, k := range retentionEvicts(finished, now, age, max) {
		drop[terminal[k]] = true
	}
	out := recs[:0:0]
	for i, rec := range recs {
		if !drop[i] {
			out = append(out, rec)
		}
	}
	return out
}

// retentionEvicts is the retention policy over terminal jobs' finish
// times: evict everything finished more than age before now, then the
// oldest-finished beyond max (age or max <= 0 disables that bound).
// Returns the indices to evict.
func retentionEvicts(finished []time.Time, now time.Time, age time.Duration, max int) []int {
	var evict, keep []int
	for i, f := range finished {
		if age > 0 && now.Sub(f) > age {
			evict = append(evict, i)
		} else {
			keep = append(keep, i)
		}
	}
	if max > 0 && len(keep) > max {
		sort.Slice(keep, func(a, b int) bool { return finished[keep[a]].Before(finished[keep[b]]) })
		evict = append(evict, keep[:len(keep)-max]...)
	}
	return evict
}
