package recast

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"daspos/internal/conditions"
	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/leshouches"
)

// highMassSearch is the preserved analysis the experiment subscribes.
func highMassSearch() *leshouches.AnalysisRecord {
	return &leshouches.AnalysisRecord{
		Name:        "GPD_2013_DIMUON_HIGHMASS",
		Description: "High-mass dimuon search, 20/fb",
		Objects: []leshouches.ObjectDefinition{
			{Name: "sig_muon", Type: datamodel.ObjMuon, MinPt: 30, MaxAbsEta: 2.4},
		},
		Selection: []leshouches.Cut{
			{Variable: "count:sig_muon", Op: ">=", Value: 2},
			{Variable: "os_pair:sig_muon", Op: "==", Value: 1},
			{Variable: "inv_mass:sig_muon", Op: ">", Value: 400},
		},
		Background:     4.2,
		ObservedEvents: 5,
	}
}

func newFullSimService(t testing.TB) *Service {
	t.Helper()
	det := detector.Standard()
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, "t", 1, 10, 10, 1); err != nil {
		t.Fatal(err)
	}
	backend := &FullSimBackend{Det: det, CondDB: db, Tag: "t", Run: 1, LuminosityPb: 20000}
	svc := NewService(backend)
	if err := svc.Subscribe(Subscription{
		Name:        "GPD_2013_DIMUON_HIGHMASS",
		Description: "High-mass dimuon search",
		Record:      highMassSearch(),
	}); err != nil {
		t.Fatal(err)
	}
	return svc
}

func validModel() ModelSpec {
	return ModelSpec{Process: "zprime", MassGeV: 1000, Events: 40, Seed: 7}
}

func TestModelValidation(t *testing.T) {
	if err := validModel().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ModelSpec{
		{Process: "axion", MassGeV: 100, Events: 10},
		{Process: "zprime", MassGeV: 10, Events: 10},
		{Process: "zprime", MassGeV: 1000, Events: 0},
		{Process: "zprime", MassGeV: 1000, Events: 1 << 30},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %+v accepted", m)
		}
	}
}

func TestSubscriptionRules(t *testing.T) {
	svc := newFullSimService(t)
	if err := svc.Subscribe(Subscription{Name: "GPD_2013_DIMUON_HIGHMASS", Record: highMassSearch()}); err == nil {
		t.Fatal("duplicate subscription accepted")
	}
	if err := svc.Subscribe(Subscription{Name: "", Record: highMassSearch()}); err == nil {
		t.Fatal("nameless subscription accepted")
	}
	if err := svc.Subscribe(Subscription{Name: "X", Record: nil}); err == nil {
		t.Fatal("recordless subscription accepted")
	}
	infos := svc.Analyses()
	if len(infos) != 1 || infos[0].Name != "GPD_2013_DIMUON_HIGHMASS" {
		t.Fatalf("catalogue: %+v", infos)
	}
}

func TestLifecycle(t *testing.T) {
	svc := newFullSimService(t)
	req, err := svc.Submit("GPD_2013_DIMUON_HIGHMASS", "theorist@ippp", "test Z' coupling", validModel())
	if err != nil {
		t.Fatal(err)
	}
	if req.Status != StatusSubmitted || req.ID == "" {
		t.Fatalf("submitted: %+v", req)
	}
	// Cannot process before approval.
	if _, err := svc.Process(req.ID); err == nil {
		t.Fatal("unapproved request processed")
	}
	if err := svc.Approve(req.ID); err != nil {
		t.Fatal(err)
	}
	// Cannot approve twice.
	if err := svc.Approve(req.ID); err == nil {
		t.Fatal("double approval accepted")
	}
	done, err := svc.Process(req.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone || done.Result == nil {
		t.Fatalf("processed: %+v", done)
	}
	res := done.Result
	if res.Generated != 40 || res.BackEnd != "fullsim" {
		t.Fatalf("result: %+v", res)
	}
	if res.Acceptance <= 0 || res.Acceptance > 1 {
		t.Fatalf("acceptance %v", res.Acceptance)
	}
	if res.UpperLimitEvents <= 0 || res.UpperLimitXsecPb <= 0 {
		t.Fatalf("limits: %+v", res)
	}
	if len(res.CutFlow) != 4 || res.CutFlow[0] != 40 {
		t.Fatalf("cutflow: %v", res.CutFlow)
	}
}

func TestRejection(t *testing.T) {
	svc := newFullSimService(t)
	req, _ := svc.Submit("GPD_2013_DIMUON_HIGHMASS", "theorist", "", validModel())
	if err := svc.Reject(req.ID, "model already covered by published limits"); err != nil {
		t.Fatal(err)
	}
	got, _ := svc.Get(req.ID)
	if got.Status != StatusRejected || got.Reason == "" {
		t.Fatalf("rejected: %+v", got)
	}
	if _, err := svc.Process(req.ID); err == nil {
		t.Fatal("rejected request processed")
	}
}

func TestSubmitValidation(t *testing.T) {
	svc := newFullSimService(t)
	if _, err := svc.Submit("UNKNOWN", "x", "", validModel()); err == nil {
		t.Fatal("unsubscribed analysis accepted")
	}
	if _, err := svc.Submit("GPD_2013_DIMUON_HIGHMASS", "", "", validModel()); err == nil {
		t.Fatal("anonymous request accepted")
	}
	bad := validModel()
	bad.MassGeV = 1
	if _, err := svc.Submit("GPD_2013_DIMUON_HIGHMASS", "x", "", bad); err == nil {
		t.Fatal("invalid model accepted")
	}
	if _, err := svc.Get("req-999999"); err == nil {
		t.Fatal("phantom request")
	}
}

func TestFullSimAcceptanceScalesWithMass(t *testing.T) {
	// A heavier Z' produces harder muons: acceptance of the high-mass
	// selection must rise steeply from below threshold to above it.
	svc := newFullSimService(t)
	acceptance := func(mass float64) float64 {
		m := validModel()
		m.MassGeV = mass
		m.Events = 60
		req, err := svc.Submit("GPD_2013_DIMUON_HIGHMASS", "x", "", m)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Approve(req.ID); err != nil {
			t.Fatal(err)
		}
		done, err := svc.Process(req.ID)
		if err != nil {
			t.Fatal(err)
		}
		return done.Result.Acceptance
	}
	low := acceptance(200) // below the 400 GeV mass cut
	high := acceptance(1500)
	if high <= low {
		t.Fatalf("acceptance ordering: m=200 -> %v, m=1500 -> %v", low, high)
	}
	if high < 0.1 {
		t.Fatalf("high-mass acceptance implausibly low: %v", high)
	}
}

// waitDone polls a request over HTTP until the front door's workers
// finish it — the theorist's view of the lifecycle.
func waitDone(t *testing.T, c *Client, id string) *Request {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		req, err := c.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if req.Status == StatusDone || req.Status == StatusFailed {
			return req
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("request %s never finished", id)
	return nil
}

func TestHTTPRoundTrip(t *testing.T) {
	srv := openServer(t, newFullSimService(t), ServerConfig{Workers: 1})
	srv.Start()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	theorist := &Client{BaseURL: hts.URL}
	experiment := &Client{BaseURL: hts.URL, Experiment: true}

	infos, err := theorist.Analyses()
	if err != nil || len(infos) != 1 {
		t.Fatalf("analyses: %v %v", infos, err)
	}
	req, err := theorist.Submit("GPD_2013_DIMUON_HIGHMASS", "theorist@ippp", "Z' at 1 TeV", validModel())
	if err != nil {
		t.Fatal(err)
	}
	if req.Status != StatusSubmitted {
		t.Fatalf("submitted request is %s, want it waiting for approval", req.Status)
	}
	// The requester cannot approve: the closed-system boundary.
	if err := theorist.Approve(req.ID); err == nil || !strings.Contains(err.Error(), "experiment role") {
		t.Fatalf("role gate breached: %v", err)
	}
	if err := experiment.Approve(req.ID); err != nil {
		t.Fatal(err)
	}
	// The theorist polls and sees only numbers.
	done := waitDone(t, theorist, req.ID)
	if done.Status != StatusDone || done.Result == nil || done.Result.BackEnd != "fullsim" {
		t.Fatalf("done: %+v", done)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv := openServer(t, newFullSimService(t), ServerConfig{})
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	c := &Client{BaseURL: hts.URL, Experiment: true}
	if _, err := c.Get("req-000042"); err == nil {
		t.Fatal("phantom request fetched")
	}
	if err := c.Approve("req-000042"); err == nil {
		t.Fatal("phantom approval")
	}
	if err := c.Reject("req-000042", "no"); err == nil {
		t.Fatal("phantom rejection")
	}
	if _, err := c.Submit("GHOST", "x", "", validModel()); err == nil {
		t.Fatal("unsubscribed submit accepted")
	}
	// The experiment cannot run the back end by hand: only the workers
	// process, so every run goes through the durable queue.
	resp, err := http.Post(hts.URL+"/requests/req-000001/process", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /process answered %d, want 404", resp.StatusCode)
	}
}

func TestQueueProcessesApprovedRequests(t *testing.T) {
	svc := newFullSimService(t)
	srv := openServer(t, svc, ServerConfig{Workers: 2})
	srv.Start()
	h := srv.Handler()
	var ids []string
	for i := 0; i < 4; i++ {
		w := postSubmit(t, h, "x", uint64(i), "")
		if w.Code != http.StatusCreated {
			t.Fatalf("submit %d: %d %s", i, w.Code, w.Body)
		}
		var req Request
		if err := json.Unmarshal(w.Body.Bytes(), &req); err != nil {
			t.Fatal(err)
		}
		r := httptest.NewRequest(http.MethodPost, "/requests/"+req.ID+"/approve", nil)
		r.Header.Set(roleHeader, roleExperiment)
		aw := httptest.NewRecorder()
		h.ServeHTTP(aw, r)
		if aw.Code != http.StatusOK {
			t.Fatalf("approve %s: %d %s", req.ID, aw.Code, aw.Body)
		}
		ids = append(ids, req.ID)
	}
	for _, id := range ids {
		if got := waitTerminal(t, svc, id); got.Status != StatusDone {
			t.Fatalf("request %s status %s (%s)", id, got.Status, got.Reason)
		}
	}
	// Close waits for the workers, so their accounting is complete.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Status(); st.Served != uint64(len(ids)) {
		t.Fatalf("served = %d, want %d", st.Served, len(ids))
	}
	if err := srv.Queue().Enqueue(QueueEntry{ID: "late", Tenant: "x"}); err == nil {
		t.Fatal("enqueue after Close accepted")
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() *Result {
		svc := newFullSimService(t)
		req, _ := svc.Submit("GPD_2013_DIMUON_HIGHMASS", "x", "", validModel())
		_ = svc.Approve(req.ID)
		done, err := svc.Process(req.ID)
		if err != nil {
			t.Fatal(err)
		}
		return done.Result
	}
	a, b := run(), run()
	if a.Selected != b.Selected || a.Acceptance != b.Acceptance {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
}

func BenchmarkFullSimRequest(b *testing.B) {
	svc := newFullSimService(b)
	for i := 0; i < b.N; i++ {
		m := validModel()
		m.Events = 10
		m.Seed = uint64(i)
		req, err := svc.Submit("GPD_2013_DIMUON_HIGHMASS", "x", "", m)
		if err != nil {
			b.Fatal(err)
		}
		if err := svc.Approve(req.ID); err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Process(req.ID); err != nil {
			b.Fatal(err)
		}
	}
}

func TestExclusionVerdict(t *testing.T) {
	svc := newFullSimService(t)
	// A huge predicted cross section must be excluded; a tiny one must not.
	verdict := func(xsecPb float64) *Result {
		m := validModel()
		m.Events = 50
		m.CrossSectionPb = xsecPb
		req, err := svc.Submit("GPD_2013_DIMUON_HIGHMASS", "x", "", m)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Approve(req.ID); err != nil {
			t.Fatal(err)
		}
		done, err := svc.Process(req.ID)
		if err != nil {
			t.Fatal(err)
		}
		return done.Result
	}
	big := verdict(1.0) // 1 pb at 20/fb -> thousands of predicted events
	if !big.Excluded || big.PredictedEvents <= big.UpperLimitEvents {
		t.Fatalf("large cross section not excluded: %+v", big)
	}
	small := verdict(1e-7)
	if small.Excluded {
		t.Fatalf("negligible cross section excluded: %+v", small)
	}
	// No cross section: no verdict fields.
	none := verdict(0)
	if none.Excluded || none.PredictedEvents != 0 {
		t.Fatalf("verdict without cross section: %+v", none)
	}
}

func TestMassScan(t *testing.T) {
	svc := newFullSimService(t)
	base := validModel()
	base.Events = 30
	points, err := MassScan(svc, "GPD_2013_DIMUON_HIGHMASS", "theorist", base, []float64{200, 800, 1500})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points: %d", len(points))
	}
	// Acceptance must rise across the 400 GeV mass cut.
	if points[2].Result.Acceptance <= points[0].Result.Acceptance {
		t.Fatalf("acceptance not rising with mass: %v -> %v",
			points[0].Result.Acceptance, points[2].Result.Acceptance)
	}
	// A scan against an unsubscribed analysis fails fast.
	if _, err := MassScan(svc, "GHOST", "x", base, []float64{500}); err == nil {
		t.Fatal("scan of unsubscribed analysis succeeded")
	}
}
