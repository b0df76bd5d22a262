package recast

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"daspos/internal/faults"
)

// openStubJournal returns a stub service with dir's request journal
// replayed and attached.
func openStubJournal(t *testing.T, dir string) *Service {
	t.Helper()
	svc, _ := newStubService(t, nil)
	if err := svc.openJournal(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.closeJournal() })
	return svc
}

func TestRequestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	svc := openStubJournal(t, dir)
	// One request in each interesting state.
	done, _ := svc.Submit("GPD_2013_DIMUON_HIGHMASS", "a", "", validModel())
	_ = svc.Approve(done.ID)
	if _, err := svc.Process(done.ID); err != nil {
		t.Fatal(err)
	}
	rejected, _ := svc.Submit("GPD_2013_DIMUON_HIGHMASS", "b", "", validModel())
	_ = svc.Reject(rejected.ID, "duplicate of published limits")
	pending, _ := svc.Submit("GPD_2013_DIMUON_HIGHMASS", "c", "", validModel())
	if err := svc.closeJournal(); err != nil {
		t.Fatal(err)
	}

	// A fresh service after restart: the experiment re-subscribes, then
	// replays the journal.
	restarted := openStubJournal(t, dir)
	got, err := restarted.Get(done.ID)
	if err != nil || got.Status != StatusDone || got.Result == nil || len(got.Attempts) != 1 {
		t.Fatalf("done request after restart: %+v %v", got, err)
	}
	gotRej, _ := restarted.Get(rejected.ID)
	if gotRej.Status != StatusRejected || gotRej.Reason == "" {
		t.Fatalf("rejected request after restart: %+v", gotRej)
	}
	// The pending request can continue its lifecycle.
	if err := restarted.Approve(pending.ID); err != nil {
		t.Fatal(err)
	}
	if finished, err := restarted.Process(pending.ID); err != nil || finished.Status != StatusDone {
		t.Fatalf("resumed request: %+v %v", finished, err)
	}
	// New submissions continue the ID sequence, no collisions.
	fresh, err := restarted.Submit("GPD_2013_DIMUON_HIGHMASS", "d", "", validModel())
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID != "req-000004" {
		t.Fatalf("sequence not resumed: %s", fresh.ID)
	}
}

// TestRequestJournalRejectsInvalidRecords: a complete line that does not
// decode, names an unknown status, or lacks an ID is corruption, not a
// tear — opening fails, the file is left as it was, and the service is
// left empty.
func TestRequestJournalRejectsInvalidRecords(t *testing.T) {
	for name, content := range map[string]string{
		"bad-json":       "{bad\n",
		"unknown-status": `{"id":"req-000001","status":"warp"}` + "\n",
		"empty-id":       `{"id":"","status":"submitted"}` + "\n",
		"later-line": `{"id":"req-000001","status":"submitted"}` + "\n" +
			`{"id":"req-000002","status":"warp"}` + "\n",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, requestJournalName)
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			svc, _ := newStubService(t, nil)
			if err := svc.openJournal(dir); err == nil {
				svc.closeJournal()
				t.Fatal("invalid journal opened")
			}
			if after, _ := os.ReadFile(path); string(after) != content {
				t.Fatalf("failed open rewrote the journal: %q", after)
			}
			if n := len(svc.List()); n != 0 {
				t.Fatalf("failed open left %d requests behind", n)
			}
		})
	}
}

func TestRequestJournalRefusesNonEmptyService(t *testing.T) {
	svc, _ := newStubService(t, nil)
	submitApproved(t, svc, 1)
	if _, err := NewServer(context.Background(), svc, ServerConfig{JournalDir: t.TempDir()}); err == nil {
		t.Fatal("journal replay into a non-empty service accepted")
	}
}

func TestReplayJournalRejectsMidStreamCorruption(t *testing.T) {
	dir := t.TempDir()
	svc := openStubJournal(t, dir)
	submitApproved(t, svc, 2)
	if err := svc.closeJournal(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, requestJournalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a line that is NOT the last — real damage, not a crash tail.
	if err := os.WriteFile(path, append([]byte("{broken json\n"), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	restored, _ := newStubService(t, nil)
	if _, err := NewServer(context.Background(), restored, ServerConfig{JournalDir: dir}); err == nil ||
		!strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mid-stream corruption accepted: %v", err)
	}
}

func TestReplayJournalDropsTornFinalRecord(t *testing.T) {
	// Tear the journal's real final record — the tail a crash mid-append
	// leaves — with the same fault primitive the checkpoint crash storm
	// uses. Replay must drop the torn record, reverting that request to
	// its previous journaled state, keep everything before it, and cut
	// the tear off so the next append starts a clean line.
	dir := t.TempDir()
	svc := openStubJournal(t, dir)
	ids := submitApproved(t, svc, 3)
	if _, err := svc.Process(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := svc.closeJournal(); err != nil {
		t.Fatal(err)
	}
	// The final record is ids[0]'s "done" snapshot. Tear it mid-write.
	path := filepath.Join(dir, requestJournalName)
	if err := faults.TearFinalRecord(path); err != nil {
		t.Fatal(err)
	}

	restored := openStubJournal(t, dir)
	// ids[0] reverted to its last intact snapshot (approved, one
	// attempt), so all three requests are back in flight — losing the
	// torn completion is safe because re-processing is idempotent;
	// losing earlier records is not.
	for _, id := range ids {
		req, err := restored.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if req.Status != StatusApproved {
			t.Fatalf("%s replayed as %s, want approved", id, req.Status)
		}
	}
	if data, _ := os.ReadFile(path); !bytes.HasSuffix(data, []byte("\n")) {
		t.Fatal("torn tail left in the journal")
	}
	// The survivor replays onward: reprocessing completes and the
	// completion survives the next restart.
	if _, err := restored.Process(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := restored.closeJournal(); err != nil {
		t.Fatal(err)
	}
	third := openStubJournal(t, dir)
	if req, err := third.Get(ids[0]); err != nil || req.Status != StatusDone {
		t.Fatalf("reprocessed %s after restart: %+v %v", ids[0], req, err)
	}
}

// TestJournalKillPointNames pins the kill points both front-door
// journals pass, in order, for one auto-approved submission: the crash
// drills arm them by name.
func TestJournalKillPointNames(t *testing.T) {
	srv, _ := newTestServer(t, ServerConfig{AutoApprove: true})
	var got []string
	hook := func(point string) { got = append(got, point) }
	srv.svc.log.SetKill(hook)
	srv.pq.SetKill(hook)
	if w := postSubmit(t, srv.Handler(), "alice", 1, ""); w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	want := []string{
		"requests.append", "requests.torn", "requests.sync", // submitted
		"requests.append", "requests.torn", "requests.sync", // approved
		"queue.append", "queue.torn", "queue.sync", // enqueued
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("kill points:\n got %v\nwant %v", got, want)
	}
}
