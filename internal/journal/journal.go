// Package journal is the one durable record format under every
// crash-safe log in the tree: the checkpoint run ledger (journal.log),
// the RECAST request journal (requests.log), and the RECAST fair queue
// (queue/queue.log). A journal is an append-only file of JSON lines, one
// record per line.
//
// The package owns the whole durability discipline, and callers own
// only their record type and what a record means:
//
//   - Open creates the file or replays it, handing every complete line
//     to the caller's apply function in file order.
//   - A final line without its newline is the tear a crash mid-append
//     leaves. Replay drops it, and Open cuts it off the file before the
//     first append, so new records never land on a partial line.
//   - A complete line that does not decode, or that apply refuses, is
//     real corruption: Open fails loudly and leaves the file untouched.
//   - Append writes one line in two halves and fsyncs it before
//     returning, so a caller that updates memory only after Append
//     succeeds never runs ahead of the disk.
//
// Each append passes three kill points named by the caller
// (<name>.append before any byte, <name>.torn with half the line
// written, <name>.sync with the line written but not yet fsynced), which
// the crash drills arm with faults.Killer.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// Log is an open journal. Appends are serialized and each is durable
// before Append returns. Safe for concurrent use.
type Log struct {
	path   string
	points [3]string // append, torn, sync kill-point names

	mu   sync.Mutex
	f    *os.File
	kill func(point string)
	// err is the first failed append: the file may now end in a partial
	// line, so no later record may be written after it. Reopening the
	// journal cuts the partial line and clears the failure.
	err error
}

// Open opens the journal at path, creating it if absent, replays every
// complete line through apply (decoded into a fresh T), and cuts a torn
// final line off the file. name prefixes the kill points Append passes.
func Open[T any](path, name string, apply func(T) error) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	valid, err := replay(data, apply)
	if err != nil {
		return nil, fmt.Errorf("journal %s: %w", filepath.Base(path), err)
	}
	if valid < len(data) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, fmt.Errorf("journal: truncating torn tail of %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	return &Log{
		path:   path,
		points: [3]string{name + ".append", name + ".torn", name + ".sync"},
		f:      f,
	}, nil
}

// replay applies every complete line of data in order and returns the
// byte length of the valid prefix: everything up to the last newline.
// Blank lines are skipped.
func replay[T any](data []byte, apply func(T) error) (int, error) {
	off := 0
	for lineNo := 1; ; lineNo++ {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return off, nil
		}
		if line := bytes.TrimSpace(data[off : off+nl]); len(line) > 0 {
			var rec T
			if err := json.Unmarshal(line, &rec); err != nil {
				return 0, fmt.Errorf("line %d corrupt: %w", lineNo, err)
			}
			if err := apply(rec); err != nil {
				return 0, fmt.Errorf("line %d: %w", lineNo, err)
			}
		}
		off += nl + 1
	}
}

// Append makes rec durable as one JSON line: two writes (so a kill
// between them leaves exactly the torn tail Open recovers from), then
// one fsync.
func (l *Log) Append(rec any) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal %s: encoding record: %w", filepath.Base(l.path), err)
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("journal %s: closed", filepath.Base(l.path))
	}
	if l.err != nil {
		return l.err
	}
	l.hit(l.points[0])
	half := len(line) / 2
	if _, err := l.f.Write(line[:half]); err != nil {
		return l.fail("append", err)
	}
	l.hit(l.points[1])
	if _, err := l.f.Write(line[half:]); err != nil {
		return l.fail("append", err)
	}
	l.hit(l.points[2])
	if err := l.f.Sync(); err != nil {
		return l.fail("fsync", err)
	}
	return nil
}

// fail records the first append failure; callers hold mu.
func (l *Log) fail(op string, err error) error {
	l.err = fmt.Errorf("journal %s: %s: %w", filepath.Base(l.path), op, err)
	return l.err
}

func (l *Log) hit(point string) {
	if l.kill != nil {
		l.kill(point)
	}
}

// SetKill installs the fault hook Append calls at each of its kill
// points. The hook runs inside the append, with the log's lock held, and
// must not call back into the log. Crash drills arm it with
// faults.Killer; production leaves it nil.
func (l *Log) SetKill(fn func(point string)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.kill = fn
}

// Path returns the journal file location.
func (l *Log) Path() string { return l.path }

// Close releases the file. Closing twice is a no-op; appends after Close
// fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
