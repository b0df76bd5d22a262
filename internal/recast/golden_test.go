package recast

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// goldenDir is a journal directory written by an earlier build of the
// front door: requests.log and queue/queue.log from one server session
// that ended with one request in flight and one queued behind it, plus
// the state each journal must replay to.
const goldenDir = "../journal/testdata"

func copyGolden(t *testing.T, name, dir string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSpace(data)
}

func TestGoldenQueueJournalReplays(t *testing.T) {
	dir := t.TempDir()
	copyGolden(t, "queue/queue.log", dir)
	q := openTestQueue(t, filepath.Join(dir, "queue"), nil)
	if got, want := q.StateSnapshot(), readGolden(t, "queue/state.json"); !bytes.Equal(got, want) {
		t.Fatalf("golden queue journal replays to a different state:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestGoldenRequestJournalReplays(t *testing.T) {
	dir := t.TempDir()
	copyGolden(t, "requests.log", dir)
	copyGolden(t, "queue/queue.log", dir)
	svc, _ := newStubService(t, nil)
	srv, err := NewServer(context.Background(), svc, ServerConfig{JournalDir: dir, Policy: fastPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	got, err := json.MarshalIndent(svc.List(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if want := readGolden(t, "requests.state.json"); !bytes.Equal(got, want) {
		t.Fatalf("golden request journal replays to a different state:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// The recovered server carries on: the in-flight and the queued
	// request finish, and the ID sequence resumes past the journal.
	srv.Start()
	for _, id := range []string{"req-000006", "req-000007"} {
		if req := waitTerminal(t, svc, id); req.Status != StatusDone {
			t.Fatalf("recovered %s = %s (%s)", id, req.Status, req.Reason)
		}
	}
	fresh, err := svc.Submit("GPD_2013_DIMUON_HIGHMASS", "dave", "", validModel())
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID != "req-000008" {
		t.Fatalf("first ID after replay = %s, want req-000008", fresh.ID)
	}
}
