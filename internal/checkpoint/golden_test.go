package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// goldenDir holds journals written by an earlier build of the ledger and
// the RECAST front door, with the state each one must replay to.
const goldenDir = "../journal/testdata"

// TestGoldenJournalReplays pins the on-disk format: a journal.log written
// by an earlier build (a done step, a step re-started after done, and an
// interrupted step with two artifacts) must keep replaying to the same
// step table.
func TestGoldenJournalReplays(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(goldenDir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(goldenDir, "journal.state.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	l := openLedger(t, dir)
	got, err := json.MarshalIndent(l.Status(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.TrimSpace(want)) {
		t.Fatalf("golden journal replays to a different state:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
