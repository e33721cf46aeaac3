// Package journal implements the durable JSONL journal the lab's
// crash-recovery machinery is built on: the campaign service's job store
// and per-job trial journals (internal/campaign, which simfuzz -checkpoint
// also writes) share this file format and recovery discipline.
//
// The format is JSON Lines: the first line is a header binding the file
// to one logical stream (a campaign configuration, a job store), and
// every following line is one appended record. The recovery rules:
//
//   - a torn final line — the process died mid-append — is silently
//     dropped: the caller loses at most the in-flight record, which a
//     resumed run simply redoes;
//   - corruption anywhere earlier is an error, never silently skipped;
//   - a header that fails the caller's match check is an error, so a
//     journal is never resumed under an incompatible configuration.
//
// Appends are serialized by an internal mutex and written as exactly one
// line per record, so concurrent appenders interleave at record
// granularity — never mid-line. That contract is pinned by race-enabled
// tests here.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// F is an open journal: recovered records were returned by Open; Append
// adds new ones.
type F struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	closed bool
}

// Open opens (or creates) the journal at path.
//
// A missing or empty file starts fresh: hdr is marshaled as the first
// line and no records are returned. An existing file is recovered: its
// first line is passed to check — return an error to reject a journal
// written under an incompatible configuration — and every following
// well-formed line is returned in file order. A torn final line is
// dropped and truncated away, so later appends start on a clean line
// boundary; earlier corruption is an error.
func Open(path string, hdr any, check func(header []byte) error) (*F, [][]byte, error) {
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err) || (err == nil && len(data) == 0):
		f, err := create(path, hdr)
		return f, nil, err
	case err != nil:
		return nil, nil, fmt.Errorf("journal %s: %w", path, err)
	}

	if bytes.IndexByte(data, '\n') < 0 {
		// No newline-terminated header: the process died inside create().
		// Nothing durable was ever recorded, so start fresh rather than
		// appending onto (or choking on) the partial header bytes.
		f, err := create(path, hdr)
		return f, nil, err
	}
	lines := bytes.Split(data, []byte("\n"))
	if check != nil {
		if err := check(lines[0]); err != nil {
			return nil, nil, err
		}
	}
	// Every Split element but the last is newline-terminated; the last is
	// empty when the file ends cleanly, or the torn fragment of an append
	// the process died inside.
	last := len(lines) - 1
	var recs [][]byte
	for i := 1; i < last; i++ {
		line := bytes.TrimSpace(lines[i])
		if len(line) == 0 {
			continue
		}
		if !json.Valid(line) {
			return nil, nil, fmt.Errorf("journal %s: corrupt record on line %d", path, i+1)
		}
		recs = append(recs, line)
	}
	if frag := lines[last]; len(frag) > 0 {
		// Torn final append from a killed process: drop the fragment and
		// truncate it away so the next Append starts on a clean line
		// boundary — appending onto the partial bytes would plant a
		// corrupt mid-file record that bricks every subsequent Open.
		if err := os.Truncate(path, int64(len(data)-len(frag))); err != nil {
			return nil, nil, fmt.Errorf("journal %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal %s: %w", path, err)
	}
	return &F{f: f, path: path}, recs, nil
}

// create truncates path and writes the header line.
func create(path string, hdr any) (*F, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	w := bufio.NewWriter(f)
	enc, err := json.Marshal(hdr)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal %s: header: %w", path, err)
	}
	w.Write(enc)
	w.WriteByte('\n')
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	return &F{f: f, path: path}, nil
}

// Append marshals rec and appends it as one line. Appends from concurrent
// goroutines serialize on an internal mutex; a record is either fully
// present or (for the final line of a killed process) fully droppable —
// never interleaved. Appending to a closed journal fails loudly.
func (j *F) Append(rec any) error {
	enc, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal %s: %w", j.path, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal %s: append after close", j.path)
	}
	if _, err := j.f.Write(append(enc, '\n')); err != nil {
		return fmt.Errorf("journal %s: %w", j.path, err)
	}
	return nil
}

// Close closes the underlying file; further Appends error.
func (j *F) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}
