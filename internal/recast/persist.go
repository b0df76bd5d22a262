package recast

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"daspos/internal/journal"
)

// The request journal (requests.log): one snapshot of a request per
// mutation — submit, approve, reject, attempt, terminal transition — on
// an internal/journal log. The service owns only what a snapshot means:
// the latest snapshot of each ID wins, every snapshot must carry an ID
// and a known status, and the ID sequence resumes after the highest ID
// replayed. Subscriptions are code-backed (the experiment re-registers
// its preserved analyses at startup), so only requests are journaled.

const requestJournalName = "requests.log"

// openJournal replays dir/requests.log into an empty service and
// attaches it, so every later mutation appends one fsynced snapshot.
// Requests that were approved but unfinished come back approved: the
// front door's reconciliation re-enqueues them.
func (s *Service) openJournal(dir string) error {
	s.mu.Lock()
	held := len(s.requests)
	s.mu.Unlock()
	if held > 0 {
		return fmt.Errorf("recast: service already holds %d requests; the request journal is the only source of them", held)
	}
	log, err := journal.Open(filepath.Join(dir, requestJournalName), "requests", s.replayRequest)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		// Leave the service as empty as it came, not half-replayed.
		s.requests = make(map[string]*Request)
		s.nextID = 0
		return fmt.Errorf("recast: request %w", err)
	}
	s.log, s.logErr = log, nil
	return nil
}

// replayRequest folds one journaled snapshot into the request table.
func (s *Service) replayRequest(req Request) error {
	if req.ID == "" {
		return fmt.Errorf("request without ID")
	}
	switch req.Status {
	case StatusSubmitted, StatusApproved, StatusRejected, StatusDone, StatusFailed:
	default:
		return fmt.Errorf("request %s has unknown status %q", req.ID, req.Status)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests[req.ID] = &req
	if n, ok := parseRequestID(req.ID); ok && n > s.nextID {
		s.nextID = n
	}
	return nil
}

// closeJournal detaches and closes the request journal.
func (s *Service) closeJournal() error {
	s.mu.Lock()
	log := s.log
	s.log = nil
	s.mu.Unlock()
	if log == nil {
		return nil
	}
	return log.Close()
}

// appendJournalLocked journals one request mutation; callers hold s.mu.
// The mutation has already happened in memory, so a failed append is
// kept (first failure wins) for the status endpoint rather than returned.
func (s *Service) appendJournalLocked(req *Request) {
	if s.log == nil {
		return
	}
	if err := s.log.Append(req); err != nil && s.logErr == nil {
		s.logErr = err
	}
}

// journalErr returns the first request-journal append failure.
func (s *Service) journalErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logErr
}

// parseRequestID extracts the sequence number from "req-NNNNNN".
func parseRequestID(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "req-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return 0, false
	}
	return n, true
}
