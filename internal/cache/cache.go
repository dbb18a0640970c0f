// Package cache models a set-associative last-level cache with LRU
// replacement, explicit flush (CLFLUSH), and cache-line locking — the
// way-pinning mechanism §4.2 of "Stop! Hammer Time" proposes as a first
// line of defense against identified aggressor lines (available today on
// many ARM parts).
//
// Rowhammer attacks must reach DRAM, so real attacks flush or evict their
// aggressor lines between accesses; the cache is what makes a locked line
// stop generating ACTs.
package cache

import (
	"errors"
	"fmt"

	"hammertime/internal/obs"
)

// Common cache errors.
var (
	// ErrLockBudget is returned when locking a line would exceed the
	// set's locked-way budget.
	ErrLockBudget = errors.New("cache: locked-way budget exhausted for set")
)

// Config describes cache organization.
type Config struct {
	// Sets and Ways give the organization; capacity = Sets*Ways lines.
	Sets int
	Ways int
	// MaxLockedWays bounds how many ways of each set may be locked
	// (0 disables locking).
	MaxLockedWays int
}

// DefaultConfig returns a 2 MiB-like LLC: 2048 sets x 16 ways of 64 B
// lines, with up to 4 lockable ways per set.
func DefaultConfig() Config {
	return Config{Sets: 2048, Ways: 16, MaxLockedWays: 4}
}

type way struct {
	line   uint64
	valid  bool
	dirty  bool
	locked bool
	lru    uint64 // last-touch tick; larger = more recent
}

// Result describes the outcome of one cache access.
type Result struct {
	// Hit is true when the line was present.
	Hit bool
	// Filled is true when the line was inserted (miss path).
	Filled bool
	// WritebackLine holds the evicted dirty line when Writeback is true.
	Writeback     bool
	WritebackLine uint64
	// Bypassed is true when the set's unlocked ways were exhausted and
	// the access had to go straight to memory without allocation.
	Bypassed bool
}

// Cache is a set-associative LLC model. Not safe for concurrent use.
type Cache struct {
	cfg  Config
	sets [][]way
	tick uint64
	// mask is Sets-1 when Sets is a power of two (setOf then masks
	// instead of dividing), 0 otherwise.
	mask uint64

	hits, misses, flushes, writebacks uint64
	lockedLines                       map[uint64]bool

	rec   *obs.Recorder
	clock func() uint64 // event timestamps; nil means cycle 0
}

// New validates cfg and builds a cache.
func New(cfg Config) (*Cache, error) {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: need positive sets/ways, got %d/%d", cfg.Sets, cfg.Ways)
	}
	if cfg.MaxLockedWays < 0 || cfg.MaxLockedWays > cfg.Ways {
		return nil, fmt.Errorf("cache: locked-way budget %d out of [0,%d]", cfg.MaxLockedWays, cfg.Ways)
	}
	c := &Cache{cfg: cfg, sets: make([][]way, cfg.Sets), lockedLines: make(map[uint64]bool)}
	for i := range c.sets {
		c.sets[i] = make([]way, cfg.Ways)
	}
	if cfg.Sets&(cfg.Sets-1) == 0 {
		c.mask = uint64(cfg.Sets - 1)
	}
	return c, nil
}

// SetRecorder attaches an event recorder and a clock supplying event
// timestamps (the cache model itself is untimed; the machine passes the
// memory controller's current cycle). Pure observer: recording changes no
// cache behavior. nil recorder disables recording.
func (c *Cache) SetRecorder(r *obs.Recorder, clock func() uint64) {
	c.rec = r
	c.clock = clock
}

func (c *Cache) nowCycle() uint64 {
	if c.clock == nil {
		return 0
	}
	return c.clock()
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) setOf(line uint64) []way {
	if c.mask != 0 {
		return c.sets[line&c.mask]
	}
	return c.sets[line%uint64(c.cfg.Sets)]
}

// Access looks up line, updating LRU state; on miss it allocates, evicting
// the LRU unlocked way. write marks the line dirty.
func (c *Cache) Access(line uint64, write bool) Result {
	c.tick++
	set := c.setOf(line)
	for i := range set {
		if set[i].valid && set[i].line == line {
			set[i].lru = c.tick
			if write {
				set[i].dirty = true
			}
			c.hits++
			return Result{Hit: true}
		}
	}
	c.misses++
	// Miss: pick an invalid way, else LRU among unlocked ways.
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		var oldest uint64 = ^uint64(0)
		for i := range set {
			if !set[i].locked && set[i].lru < oldest {
				oldest = set[i].lru
				victim = i
			}
		}
	}
	if victim < 0 {
		// Every way locked: serve from memory without allocating.
		return Result{Bypassed: true}
	}
	res := Result{Filled: true}
	if set[victim].valid && set[victim].dirty {
		res.Writeback = true
		res.WritebackLine = set[victim].line
		c.writebacks++
	}
	set[victim] = way{line: line, valid: true, dirty: write, lru: c.tick}
	return res
}

// Contains reports whether line is currently cached.
func (c *Cache) Contains(line uint64) bool {
	set := c.setOf(line)
	for i := range set {
		if set[i].valid && set[i].line == line {
			return true
		}
	}
	return false
}

// Flush invalidates line (CLFLUSH). It returns true with the dirty flag
// when a writeback is required. Locked lines are not invalidated — the
// lockdown mechanism (§4.2) exists precisely so an attacker's own flushes
// cannot force the line back to DRAM; the flush is absorbed.
func (c *Cache) Flush(line uint64) (present, dirty bool) {
	set := c.setOf(line)
	for i := range set {
		if set[i].valid && set[i].line == line {
			if set[i].locked {
				return false, false
			}
			present, dirty = true, set[i].dirty
			set[i] = way{}
			c.flushes++
			if dirty {
				c.writebacks++
			}
			return present, dirty
		}
	}
	return false, false
}

// Lock pins line into its set (inserting it if absent) so it can never be
// evicted — the §4.2 "first line of defense": a locked aggressor line
// stops generating row activations. Fails with ErrLockBudget when the
// set's budget is exhausted.
func (c *Cache) Lock(line uint64) error {
	if c.cfg.MaxLockedWays == 0 {
		return fmt.Errorf("cache: locking disabled: %w", ErrLockBudget)
	}
	set := c.setOf(line)
	locked := 0
	idx := -1
	for i := range set {
		if set[i].locked {
			locked++
		}
		if set[i].valid && set[i].line == line {
			idx = i
		}
	}
	if idx >= 0 {
		if set[idx].locked {
			return nil
		}
		if locked >= c.cfg.MaxLockedWays {
			return fmt.Errorf("cache: line %#x: %w", line, ErrLockBudget)
		}
		set[idx].locked = true
		c.lockedLines[line] = true
		c.emitLock(obs.KindLineLock, line)
		return nil
	}
	if locked >= c.cfg.MaxLockedWays {
		return fmt.Errorf("cache: line %#x: %w", line, ErrLockBudget)
	}
	// Insert-and-lock: reuse the normal fill path, then pin.
	c.tick++
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		var oldest uint64 = ^uint64(0)
		for i := range set {
			if !set[i].locked && set[i].lru < oldest {
				oldest = set[i].lru
				victim = i
			}
		}
	}
	if victim < 0 {
		return fmt.Errorf("cache: line %#x: %w", line, ErrLockBudget)
	}
	set[victim] = way{line: line, valid: true, locked: true, lru: c.tick}
	c.lockedLines[line] = true
	c.emitLock(obs.KindLineLock, line)
	return nil
}

func (c *Cache) emitLock(kind obs.Kind, line uint64) {
	if !c.rec.Wants(kind) {
		return
	}
	c.rec.Emit(obs.Event{Kind: kind, Cycle: c.nowCycle(), Bank: -1, Row: -1, Domain: -1, Line: line})
}

// Unlock releases a previously locked line (it stays cached).
func (c *Cache) Unlock(line uint64) {
	set := c.setOf(line)
	for i := range set {
		if set[i].valid && set[i].line == line {
			set[i].locked = false
		}
	}
	if c.lockedLines[line] {
		c.emitLock(obs.KindLineUnlock, line)
	}
	delete(c.lockedLines, line)
}

// LockedCount returns how many lines are currently locked.
func (c *Cache) LockedCount() int { return len(c.lockedLines) }

// Stats returns cumulative hits, misses, flushes and writebacks.
func (c *Cache) Stats() (hits, misses, flushes, writebacks uint64) {
	return c.hits, c.misses, c.flushes, c.writebacks
}
