package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"daspos/internal/faults"
)

type rec struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

// openRecs opens path and returns the log with every replayed record.
func openRecs(t *testing.T, path string) (*Log, []rec) {
	t.Helper()
	var got []rec
	l, err := Open(path, "test", func(r rec) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, got
}

func appendRecs(t *testing.T, l *Log, recs ...rec) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	l, got := openRecs(t, path)
	if len(got) != 0 {
		t.Fatalf("new journal replayed %v", got)
	}
	want := []rec{{N: 1, S: "a"}, {N: 2}, {N: 3, S: "c"}}
	appendRecs(t, l, want...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if string(data) != "{\"n\":1,\"s\":\"a\"}\n{\"n\":2}\n{\"n\":3,\"s\":\"c\"}\n" {
		t.Fatalf("on-disk bytes: %q", data)
	}
	// Blank lines are skipped, not corruption.
	if err := os.WriteFile(path, append(data, "\n  \n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, got = openRecs(t, path)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
}

func TestTornTailDroppedAndCut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	l, _ := openRecs(t, path)
	appendRecs(t, l, rec{N: 1}, rec{N: 2, S: "torn"})
	l.Close()
	if err := faults.TearFinalRecord(path); err != nil {
		t.Fatal(err)
	}
	l, got := openRecs(t, path)
	if len(got) != 1 || got[0].N != 1 {
		t.Fatalf("replayed %v, want only the durable record", got)
	}
	if data, _ := os.ReadFile(path); string(data) != "{\"n\":1}\n" {
		t.Fatalf("torn tail not cut before the first append: %q", data)
	}
	appendRecs(t, l, rec{N: 3})
	l.Close()
	if _, got = openRecs(t, path); len(got) != 2 || got[1].N != 3 {
		t.Fatalf("after cut + append: %v", got)
	}
}

func TestCorruptionFailsOpenAndLeavesFile(t *testing.T) {
	refuse := errors.New("refused by apply")
	for name, tc := range map[string]struct {
		content string
		apply   func(rec) error
		want    string
	}{
		"malformed": {"{\"n\":1}\nnot json\n{\"n\":3}\n", nil, "line 2 corrupt"},
		// A malformed final line that is complete (newline present) is
		// corruption too: only a missing newline marks a tear.
		"malformed-last": {"{\"n\":1}\n{\"n\":\n", nil, "line 2 corrupt"},
		"refused": {"{\"n\":1}\n{\"n\":2}\n", func(r rec) error {
			if r.N == 2 {
				return refuse
			}
			return nil
		}, "line 2: refused by apply"},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.log")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			apply := tc.apply
			if apply == nil {
				apply = func(rec) error { return nil }
			}
			_, err := Open(path, "test", apply)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open = %v, want error containing %q", err, tc.want)
			}
			if tc.apply != nil && !errors.Is(err, refuse) {
				t.Fatalf("apply's error not wrapped: %v", err)
			}
			if data, _ := os.ReadFile(path); string(data) != tc.content {
				t.Fatalf("failed Open changed the file: %q", data)
			}
		})
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, _ := openRecs(t, filepath.Join(t.TempDir(), "j.log"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.Append(rec{N: 1}); err == nil {
		t.Fatal("append after Close succeeded")
	}
}

// TestKillPointSweep crashes an append script at every kill point it
// passes, reopens, and checks the journal holds exactly the records a
// never-crashed run had made durable by then: everything before the
// killed append, plus the killed record itself only when the kill came
// after its last byte (".sync"). The reopened log must then take the
// rest of the script and replay to the full, uncrashed sequence.
func TestKillPointSweep(t *testing.T) {
	script := []rec{{N: 1, S: "enqueue"}, {N: 2}, {N: 3, S: "a longer record to tear"}, {N: 4}}
	points := []string{"sweep.append", "sweep.torn", "sweep.sync"}
	for k := 1; k <= len(script)*len(points); k++ {
		idx, point := (k-1)/len(points), points[(k-1)%len(points)]
		t.Run(fmt.Sprintf("kill-%02d-%s", k, point), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.log")
			l, err := Open(path, "sweep", func(rec) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			killer := faults.NewKiller()
			killer.CrashAfterN(k)
			l.SetKill(killer.Hit)
			kill := func() (k *faults.Kill) {
				defer func() {
					if r := recover(); r != nil {
						var ok bool
						if k, ok = faults.AsKill(r); !ok {
							panic(r)
						}
					}
				}()
				for _, r := range script {
					if err := l.Append(r); err != nil {
						t.Fatal(err)
					}
				}
				return nil
			}()
			if kill == nil || kill.Point != point {
				t.Fatalf("kill %d fired at %v, want %s", k, kill, point)
			}
			// The killed log must still close: the kill released its lock.
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			durable := script[:idx]
			if point == "sweep.sync" {
				durable = script[:idx+1]
			}
			re, got := openRecs(t, path)
			if fmt.Sprint(got) != fmt.Sprint(durable) {
				t.Fatalf("after kill at %s of record %d: replayed %v, want %v", point, idx, got, durable)
			}
			appendRecs(t, re, script[len(durable):]...)
			re.Close()
			if _, got = openRecs(t, path); fmt.Sprint(got) != fmt.Sprint(script) {
				t.Fatalf("resumed journal replays %v, want %v", got, script)
			}
		})
	}
}

// FuzzJournalReplay opens arbitrary bytes as a journal. Open must never
// panic; when it fails it must leave the file untouched; when it
// succeeds the file must be cut to exactly the replayed lines, a reopen
// must replay the same records, and an append must land on a clean line.
// The seeds are the golden journals in testdata, whole, torn, and with a
// corrupt line in front.
func FuzzJournalReplay(f *testing.F) {
	for _, name := range []string{"journal.log", "queue/queue.log", "requests.log"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-len(data)/7])
		f.Add(append([]byte("{\"kind\":\n"), data...))
	}
	f.Add([]byte(""))
	f.Add([]byte("\n\n{}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got []string
		collect := func(r json.RawMessage) error {
			got = append(got, string(r))
			return nil
		}
		l, err := Open(path, "fuzz", collect)
		if err != nil {
			if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
				t.Fatalf("failed Open changed the file")
			}
			return
		}
		valid := bytes.LastIndexByte(data, '\n') + 1
		if after, _ := os.ReadFile(path); !bytes.Equal(after, data[:valid]) {
			t.Fatalf("file after Open is not the complete-line prefix of the input")
		}
		var want []string
		for _, line := range bytes.Split(data[:valid], []byte("\n")) {
			if line = bytes.TrimSpace(line); len(line) > 0 {
				want = append(want, string(line))
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("replayed %q, want the complete lines %q", got, want)
		}
		if err := l.Append(map[string]int{"appended": 1}); err != nil {
			t.Fatal(err)
		}
		l.Close()
		first := got
		got = nil
		re, err := Open(path, "fuzz", collect)
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		re.Close()
		if want := fmt.Sprint(append(first, `{"appended":1}`)); fmt.Sprint(got) != want {
			t.Fatalf("reopen replayed %q, want %s", got, want)
		}
	})
}

// TestFailedAppendStopsLaterAppends: after a write fails, the file may
// end in a partial line, so the log refuses every later append (without
// reaching a kill point) until it is reopened.
func TestFailedAppendStopsLaterAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	l, _ := openRecs(t, path)
	appendRecs(t, l, rec{N: 1})
	l.f.Close() // the next write fails, as on a dead disk
	first := l.Append(rec{N: 2})
	if first == nil {
		t.Fatal("append on a failed file succeeded")
	}
	hits := 0
	l.SetKill(func(string) { hits++ })
	if err := l.Append(rec{N: 3}); err != first {
		t.Fatalf("second append = %v, want the first failure %v", err, first)
	}
	if hits != 0 {
		t.Fatalf("refused append reached %d kill points", hits)
	}
	if _, got := openRecs(t, path); len(got) != 1 || got[0].N != 1 {
		t.Fatalf("reopened journal replays %v, want only the first record", got)
	}
}
