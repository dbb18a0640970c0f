package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// replayed is one record as replay saw it.
type replayed struct {
	Line string
	Off  int64
}

// openCollect opens path, collecting what replay accepts; lines equal to
// reject (if non-empty) are refused.
func openCollect(t *testing.T, path, reject string) (*Journal, []replayed) {
	t.Helper()
	var got []replayed
	j, err := Open(path, func(line []byte, off int64) bool {
		if reject != "" && string(line) == reject {
			return false
		}
		got = append(got, replayed{string(line), off})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return j, got
}

func writeFile(t *testing.T, path, data string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestOpenCreatesAndAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, got := openCollect(t, path, "")
	if len(got) != 0 {
		t.Fatalf("fresh journal replayed %v", got)
	}
	for i, rec := range []string{`{"a":1}`, `{"b":22}`} {
		off, err := j.Append([]byte(rec))
		if err != nil {
			t.Fatal(err)
		}
		if want := []int64{0, 8}[i]; off != want {
			t.Fatalf("record %d at offset %d, want %d", i, off, want)
		}
	}
	if b, err := j.ReadAt(8, 8); err != nil || string(b) != `{"b":22}` {
		t.Fatalf("ReadAt(8) = %q, %v", b, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "{\"a\":1}\n{\"b\":22}\n" {
		t.Fatalf("file = %q", got)
	}
	_, got = openCollect(t, path, "")
	want := []replayed{{`{"a":1}`, 0}, {`{"b":22}`, 8}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay = %v, want %v", got, want)
	}
}

// TestOpenTrimsTornFragment: a write killed mid-record leaves an
// unterminated fragment; open replays the complete records only and
// trims the fragment so the next append starts a clean line.
func TestOpenTrimsTornFragment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	writeFile(t, path, "one\ntwo\n{\"torn\":tr")
	j, got := openCollect(t, path, "")
	if want := []replayed{{"one", 0}, {"two", 4}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replay = %v, want %v", got, want)
	}
	if got := readFile(t, path); got != "one\ntwo\n" {
		t.Fatalf("torn fragment not trimmed: %q", got)
	}
	if off, err := j.Append([]byte("three")); err != nil || off != 8 {
		t.Fatalf("append after trim at %d, %v; want 8", off, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "one\ntwo\nthree\n" {
		t.Fatalf("file = %q", got)
	}
}

// TestOpenStopsAtRejectedLine: a corrupt full line ends the replay —
// nothing after it is trusted — and is trimmed away with everything
// after it.
func TestOpenStopsAtRejectedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	writeFile(t, path, "one\nCORRUPT\nthree\n")
	j, got := openCollect(t, path, "CORRUPT")
	defer j.Close()
	if want := []replayed{{"one", 0}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replay = %v, want %v", got, want)
	}
	if got := readFile(t, path); got != "one\n" {
		t.Fatalf("file after a corrupt line = %q, want only the record before it", got)
	}
}

// TestRewriteAtomic: Rewrite replaces the contents in one rename, leaves
// no temp file and keeps the journal appendable with fresh offsets.
func TestRewriteAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	writeFile(t, path, "a1\nb1\na2\n")
	j, _ := openCollect(t, path, "")
	if err := j.Rewrite([][]byte{[]byte("a2"), []byte("b1")}); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "a2\nb1\n" {
		t.Fatalf("rewritten file = %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	off, err := j.Append([]byte("c1"))
	if err != nil || off != 6 {
		t.Fatalf("append after rewrite at %d, %v; want 6", off, err)
	}
	if b, err := j.ReadAt(off, 2); err != nil || string(b) != "c1" {
		t.Fatalf("ReadAt after rewrite = %q, %v", b, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "a2\nb1\nc1\n" {
		t.Fatalf("file = %q", got)
	}
}

// TestFailedRewriteIsSticky: a rewrite that cannot write its temp file
// (here <path>.tmp is a directory, which fails even for root) leaves the
// old file intact and sets the sticky error, so later appends are
// dropped loudly instead of silently.
func TestFailedRewriteIsSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	writeFile(t, path, "a\nb\n")
	j, _ := openCollect(t, path, "")
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := j.Rewrite([][]byte{[]byte("x")}); err == nil {
		t.Fatal("rewrite over a directory succeeded")
	}
	if j.Err() == nil {
		t.Fatal("failed rewrite left no sticky error")
	}
	if got := readFile(t, path); got != "a\nb\n" {
		t.Fatalf("failed rewrite damaged the journal: %q", got)
	}
	if _, err := j.Append([]byte("c")); err == nil {
		t.Fatal("append after a failed rewrite reported success")
	}
	if err := j.Close(); err == nil || !errors.Is(err, j.Err()) {
		t.Fatalf("close = %v, want the sticky error %v", err, j.Err())
	}
	if got := readFile(t, path); got != "a\nb\n" {
		t.Fatalf("append after sticky error reached the file: %q", got)
	}
}

// TestAppendsAfterStickyErrorDropped: once a failure is recorded every
// append is dropped and reports it; Close reports it first.
func TestAppendsAfterStickyErrorDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _ := openCollect(t, path, "")
	if _, err := j.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	lost := errors.New("record could not be encoded")
	j.Fail(lost)
	j.Fail(errors.New("second failure")) // the first one stays
	for i := 0; i < 3; i++ {
		if _, err := j.Append([]byte("dropped")); !errors.Is(err, lost) {
			t.Fatalf("append after failure = %v, want %v", err, lost)
		}
	}
	if err := j.Close(); !errors.Is(err, lost) {
		t.Fatalf("close = %v, want %v", err, lost)
	}
	if got := readFile(t, path); got != "kept\n" {
		t.Fatalf("file = %q, want only the record before the failure", got)
	}
}

// TestClosedJournal: after Close, appends and reads fail without
// inventing a sticky error.
func TestClosedJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _ := openCollect(t, path, "")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("late")); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("append after close = %v", err)
	}
	if _, err := j.ReadAt(0, 1); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("read after close = %v", err)
	}
	if err := j.Rewrite(nil); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("rewrite after close = %v", err)
	}
	if err := j.Err(); err != nil {
		t.Fatalf("close invented a sticky error: %v", err)
	}
	if got := readFile(t, path); got != "" {
		t.Fatalf("file = %q", got)
	}
}

// FuzzJournalOpen feeds arbitrary bytes to Open with a replay that
// rejects some lines: it must never fail or panic, must leave exactly
// the accepted records on disk, and a second open of the trimmed file
// must replay the same records.
func FuzzJournalOpen(f *testing.F) {
	f.Add([]byte("{\"key\":\"a\",\"result\":1}\n{\"key\":\"b\",\"re"))
	f.Add([]byte("one\n\ntwo\n"))
	f.Add([]byte("{}\nx\n{}\n"))
	f.Add([]byte{0xff, '\n', 0x00})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Reject empty lines and lines starting with 'x'.
		accept := func(line []byte) bool { return len(line) > 0 && line[0] != 'x' }
		open := func() []replayed {
			var got []replayed
			j, err := Open(path, func(line []byte, off int64) bool {
				if !accept(line) {
					return false
				}
				got = append(got, replayed{string(line), off})
				return true
			})
			if err != nil {
				t.Fatalf("open must tolerate arbitrary bytes, got: %v", err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			return got
		}
		first := open()
		var want bytes.Buffer
		for _, r := range first {
			if int64(want.Len()) != r.Off {
				t.Fatalf("record %q at offset %d, want %d", r.Line, r.Off, want.Len())
			}
			want.WriteString(r.Line + "\n")
		}
		if got := readFile(t, path); got != want.String() {
			t.Fatalf("trimmed file = %q, want the accepted records %q", got, want.String())
		}
		if second := open(); !reflect.DeepEqual(second, first) {
			t.Fatalf("reopen replayed %v, first open %v", second, first)
		}
	})
}
