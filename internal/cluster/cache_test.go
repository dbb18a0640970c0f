package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hammertime/internal/sim"
)

func raw(s string) json.RawMessage { return json.RawMessage(s) }

func TestCacheLRUBoundsBytes(t *testing.T) {
	c := NewResultCache(100)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("key-%d", i), raw(`{"v":"0123456789012345"}`)) // 24 bytes each
	}
	if c.Bytes() > 100 {
		t.Fatalf("cache holds %d bytes, budget 100", c.Bytes())
	}
	if c.Len() != 4 {
		t.Fatalf("cache holds %d entries, want 4 (100/24)", c.Len())
	}
	// Newest entries survive, oldest were evicted.
	if _, ok := c.Get("key-9"); !ok {
		t.Fatal("newest entry evicted")
	}
	if _, ok := c.Get("key-0"); ok {
		t.Fatal("oldest entry survived a full wrap")
	}
	if _, _, evicted := c.Counters(); evicted != 6 {
		t.Fatalf("evicted %d, want 6", evicted)
	}
}

func TestCacheGetPromotesRecency(t *testing.T) {
	c := NewResultCache(50) // room for exactly two 24-byte entries
	c.Put("a", raw(`{"v":"0123456789012345"}`))
	c.Put("b", raw(`{"v":"0123456789012345"}`))
	c.Get("a") // a is now most recent
	c.Put("c", raw(`{"v":"0123456789012345"}`))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("least recently used entry survived")
	}
}

func TestCachePutIdempotent(t *testing.T) {
	c := NewResultCache(0)
	c.Put("k", raw(`{"first":true}`))
	c.Put("k", raw(`{"second":true}`))
	got, ok := c.Get("k")
	if !ok || string(got) != `{"first":true}` {
		t.Fatalf("got %s, want the first insert kept", got)
	}
	if c.Len() != 1 {
		t.Fatalf("duplicate Put grew the cache to %d entries", c.Len())
	}
}

func TestCacheCounters(t *testing.T) {
	c := NewResultCache(0)
	c.Put("k", raw(`1`))
	c.Get("k")
	c.Get("k")
	c.Get("absent")
	hits, misses, _ := c.Counters()
	if hits != 2 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", hits, misses)
	}
}

func TestCacheSpillPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	c := NewResultCache(0)
	if err := c.OpenSpill(path); err != nil {
		t.Fatal(err)
	}
	c.Put("aaaa", raw(`{"flips":3}`))
	c.Put("bbbb", raw(`{"flips":0}`))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := NewResultCache(0)
	if err := c2.OpenSpill(path); err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got, ok := c2.Get("aaaa")
	if !ok || string(got) != `{"flips":3}` {
		t.Fatalf("spilled entry not restored: %s ok=%v", got, ok)
	}
	if _, ok := c2.Get("cccc"); ok {
		t.Fatal("phantom entry after reload")
	}
}

func TestCacheSpillServesEvictedEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	c := NewResultCache(50) // two 24-byte entries max
	if err := c.OpenSpill(path); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Put("a", raw(`{"v":"0123456789012345"}`))
	c.Put("b", raw(`{"v":"0123456789012345"}`))
	c.Put("c", raw(`{"v":"0123456789012345"}`)) // evicts a from memory
	got, ok := c.Get("a")
	if !ok {
		t.Fatal("evicted entry not served from spill")
	}
	if string(got) != `{"v":"0123456789012345"}` {
		t.Fatalf("spill returned %s", got)
	}
}

func TestCacheSpillTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	line, _ := json.Marshal(spillRecord{Key: "good", Result: raw(`1`)})
	if err := os.WriteFile(path, append(append(line, '\n'), []byte(`{"key":"torn","resu`)...), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewResultCache(0)
	if err := c.OpenSpill(path); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.Get("good"); !ok {
		t.Fatal("intact record lost")
	}
	if _, ok := c.Get("torn"); ok {
		t.Fatal("torn record served")
	}
	// The torn tail must be gone so appends produce a clean file.
	c.Put("new", raw(`2`))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewResultCache(0)
	if err := c2.OpenSpill(path); err != nil {
		t.Fatalf("file corrupt after append over torn tail: %v\n%s", err, data)
	}
	defer c2.Close()
	if _, ok := c2.Get("new"); !ok {
		t.Fatal("appended record lost after torn-tail truncate")
	}
}

// writeGoldenSpill performs the puts testdata/spill.jsonl was written
// from, in order; the repeated key is not written twice.
func writeGoldenSpill(c *ResultCache) {
	c.Put("049934eb27ea3468", raw(`{"flips":3,"rate":0.25}`))
	c.Put("9f86d081deadbeef", raw(`[1,2,3]`))
	c.Put("049934eb27ea3468", raw(`{"flips":9}`))
	c.Put("0123456789abcdef", raw(`"ERR(timeout)"`))
}

// TestCacheSpillGoldenBytes pins the spill format: testdata/spill.jsonl
// holds the exact bytes the spill writer produced before it moved onto
// internal/journal. Today's writer must produce the same bytes, and
// today's loader must serve that file — the first record of a key wins.
func TestCacheSpillGoldenBytes(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "spill.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	written := filepath.Join(dir, "written.jsonl")
	c := NewResultCache(0)
	if err := c.OpenSpill(written); err != nil {
		t.Fatal(err)
	}
	writeGoldenSpill(c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(written); !bytes.Equal(got, golden) {
		t.Fatalf("spill bytes changed:\n%s\nwant\n%s", got, golden)
	}

	// A later duplicate of a key (two coordinators sharing a file) must
	// not shadow the first record.
	loaded := filepath.Join(dir, "golden.jsonl")
	dup := append(append([]byte{}, golden...), `{"key":"049934eb27ea3468","result":{"flips":9}}`+"\n"...)
	if err := os.WriteFile(loaded, dup, 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := NewResultCache(0)
	if err := c2.OpenSpill(loaded); err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for key, want := range map[string]string{
		"049934eb27ea3468": `{"flips":3,"rate":0.25}`,
		"9f86d081deadbeef": `[1,2,3]`,
		"0123456789abcdef": `"ERR(timeout)"`,
	} {
		if got, ok := c2.Get(key); !ok || string(got) != want {
			t.Fatalf("key %s served %s (ok=%v), want %s", key, got, ok, want)
		}
	}
}

// TestSpillErrorGauge: a spill that lost an append degrades the cache to
// memory-only; /metrics shows it as cluster.cache.spill_error.
func TestSpillErrorGauge(t *testing.T) {
	c := NewResultCache(0)
	if err := c.OpenSpill(filepath.Join(t.TempDir(), "cells.jsonl")); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	d := NewDispatcher(DispatcherConfig{Registry: NewRegistry(time.Minute), Cache: c})
	gauge := func() float64 {
		var st sim.Stats
		d.MergeInto(&st)
		return st.Gauge("cluster.cache.spill_error")
	}
	if g := gauge(); g != 0 {
		t.Fatalf("healthy spill gauge = %v, want 0", g)
	}
	c.spill.Fail(errors.New("disk full"))
	c.Put("k", raw(`1`))
	if c.SpillErr() == nil {
		t.Fatal("spill failure not reported by SpillErr")
	}
	if g := gauge(); g != 1 {
		t.Fatalf("failed spill gauge = %v, want 1", g)
	}
	if got, ok := c.Get("k"); !ok || string(got) != `1` {
		t.Fatal("cache stopped serving from memory after a spill failure")
	}
}
