// Package journal is the one durable file behind the harness
// checkpoint, the cluster result-cache spill and hammerd's job store: an
// append-only file of '\n'-terminated records, replayed on open.
//
// Every record is one write() of the record and its newline, never
// fsynced, so a killed process leaves at most one unterminated fragment;
// Open trims it, together with everything from the first record the
// caller rejects as corrupt. Rewrite replaces the file through a temp
// file, fsync and rename. The first failure is sticky: later appends are
// dropped, and Err and Close report it.
package journal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// Journal is an open record file. Safe for concurrent use.
type Journal struct {
	path string

	mu   sync.Mutex
	f    *os.File // nil once closed, or when a rewrite failed to reopen
	size int64    // offset of the next record
	err  error    // sticky: first failure
}

// Open opens (creating if needed) the journal at path and passes each
// complete record, without its newline, and its offset to replay, in
// file order; the line is replay's to keep. Replay stops at the first
// record replay rejects or at an unterminated fragment, and the file is
// truncated to the end of the last accepted record.
func Open(path string, replay func(line []byte, off int64) bool) (*Journal, error) {
	// O_APPEND: writes land at the end wherever the replay left the
	// file position.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	r := bufio.NewReader(f)
	var off int64
	for {
		line, err := r.ReadBytes('\n')
		if err != nil || !replay(line[:len(line)-1], off) {
			break
		}
		off += int64(len(line))
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: trim %s: %w", path, err)
	}
	return &Journal{path: path, f: f, size: off}, nil
}

// Append writes rec (which must not contain '\n'; its spare capacity
// may be used) as one record in a single write and returns its offset.
// After a sticky failure, or once closed, the record is dropped.
func (j *Journal) Append(rec []byte) (int64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return 0, j.err
	}
	if j.f == nil {
		return 0, os.ErrClosed
	}
	if _, err := j.f.Write(append(rec, '\n')); err != nil {
		j.err = fmt.Errorf("journal: append %s: %w", j.path, err)
		return 0, j.err
	}
	off := j.size
	j.size += int64(len(rec)) + 1
	return off, nil
}

// ReadAt reads back the n-byte record at offset off.
func (j *Journal) ReadAt(off int64, n int) ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil, os.ErrClosed
	}
	buf := make([]byte, n)
	_, err := j.f.ReadAt(buf, off)
	return buf, err
}

// Rewrite replaces the journal's records with recs: written to
// <path>.tmp, fsynced, renamed over the journal and reopened. Earlier
// offsets are void afterwards. A failed rewrite is sticky.
func (j *Journal) Rewrite(recs [][]byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.f == nil {
		return os.ErrClosed
	}
	tmp := j.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err == nil {
		w := bufio.NewWriter(f)
		for _, rec := range recs {
			w.Write(rec)
			w.WriteByte('\n')
		}
		err = errors.Join(w.Flush(), f.Sync(), f.Close())
	}
	if err == nil {
		err = os.Rename(tmp, j.path)
	}
	if err == nil {
		j.f.Close() // the replaced file
		j.f, err = os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0)
	}
	if err == nil {
		j.size, err = j.f.Seek(0, io.SeekEnd)
	}
	if err != nil {
		j.err = fmt.Errorf("journal: rewrite %s: %w", j.path, err)
	}
	return j.err
}

// Fail records err as the sticky failure unless one is set: for a
// record that could not even be encoded.
func (j *Journal) Fail(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		j.err = err
	}
}

// Err returns the sticky failure, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close closes the file, reporting the sticky failure first.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	first := j.err
	if j.f != nil {
		if err := j.f.Close(); err != nil && first == nil {
			first = err
		}
		j.f = nil
	}
	return first
}
