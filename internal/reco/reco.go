// Package reco implements the Reconstruction step of the paper's generic
// workflow (§3.2): "the application of pattern-recognition and
// local-maximum-finding algorithms that convert the raw binary data read
// out from the detector elements into recognizable objects", followed by
// the refinement of those objects into "candidate physics objects
// (electrons, muons, particle jets)".
//
// The chain is: unpack raw banks → find tracks (seeded helix following) →
// find vertices → cluster calorimeter cells → build candidates → compute
// missing transverse momentum. Reconstruction is the only workflow step
// with dense external dependencies: every call resolves calibration and
// alignment payloads through a conditions source, and the set of folders
// it touched is reported so the workflow engine can enumerate dependencies
// (experiment W2).
package reco

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"daspos/internal/conditions"
	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/fourvec"
	"daspos/internal/rawdata"
)

// Source resolves conditions folders. Both *conditions.Snapshot (shippable
// text constants, ALICE-style) and *conditions.View (live database access)
// satisfy it — the two access patterns the workshop compared.
type Source interface {
	Lookup(folder string) (conditions.Payload, error)
}

// Config tunes the reconstruction algorithms. DefaultConfig returns the
// production values.
type Config struct {
	// SeedPhiTolerance is the maximum |Δφ| (rad) between a predicted and
	// observed hit when attaching hits to a track seed.
	SeedPhiTolerance float64
	// SeedZTolerance is the matching window in z (mm).
	SeedZTolerance float64
	// MinLayers is the minimum number of distinct layers on a track.
	MinLayers int
	// MinTrackPt drops tracks below this transverse momentum (GeV).
	MinTrackPt float64
	// ClusterSeedE and ClusterCellE are calorimeter clustering thresholds
	// (GeV): a seed cell must exceed the first, neighbours join above the
	// second.
	ClusterSeedE, ClusterCellE float64
	// JetConeR is the cone radius for jet building.
	JetConeR float64
	// JetMinPt drops jets below this pT (GeV).
	JetMinPt float64
	// VertexWindowZ is the z window (mm) for grouping tracks into vertices.
	VertexWindowZ float64
}

// DefaultConfig returns the production reconstruction configuration.
func DefaultConfig() Config {
	return Config{
		SeedPhiTolerance: 0.02,
		SeedZTolerance:   30,
		MinLayers:        5,
		MinTrackPt:       0.3,
		ClusterSeedE:     0.5,
		ClusterCellE:     0.1,
		JetConeR:         0.4,
		JetMinPt:         15,
		VertexWindowZ:    8,
	}
}

// Reconstructor converts raw events into RECO-tier events.
//
// A Reconstructor is single-goroutine state: the event-flow substrate
// creates one per worker (ParallelStage), which is what makes the scratch
// arenas below safe. Everything in scratch is reused across events, so a
// warm reconstructor stops allocating for unpacking, bookkeeping, and the
// kinematics columns of its inner loops.
type Reconstructor struct {
	det *detector.Detector
	cfg Config
	// Version identifies the reconstruction release; provenance records it
	// on every output.
	Version string
	// trackerLayers are the detector's pixel and strip layers, inner to
	// outer: the layers track finding seeds from and follows through.
	trackerLayers []int
	// touched accumulates the conditions folders resolved by the last
	// Reconstruct call.
	touched []string

	// Per-event scratch, reused across Reconstruct calls. Nothing here may
	// escape into the output event — outputs are freshly built (or the
	// caller's arena's problem), scratch is this instance's.
	scrTrackerHits []hit
	scrMuonHits    []hit
	scrCells       []cell
	scrLayers      []layerHits
	scrCollected   []*hit
	scrZs          []float64
	scrIdx         []int
	scrUsedTrack   []bool
	scrUsedCluster []bool
	scrTaken       []bool
	scrRemaining   []int

	// Columnar kinematics for the pair loops: track momenta and cluster
	// vectors with pt/η/φ derived once per event instead of once per pair.
	trackKin   fourvec.Slab
	clusterKin fourvec.Slab
}

// New returns a reconstructor over the given geometry with the default
// configuration.
func New(det *detector.Detector) *Reconstructor {
	return NewWithConfig(det, DefaultConfig())
}

// NewWithConfig returns a reconstructor with explicit algorithm settings.
func NewWithConfig(det *detector.Detector, cfg Config) *Reconstructor {
	return &Reconstructor{det: det, cfg: cfg, Version: "reco-3.2.1", trackerLayers: det.TrackerLayers()}
}

// TouchedFolders returns the conditions folders the last Reconstruct call
// resolved, in access order. The workflow engine records this census as
// the step's external dependencies.
func (r *Reconstructor) TouchedFolders() []string {
	return append([]string(nil), r.touched...)
}

// Folders returns the conditions folders every Reconstruct call resolves,
// in access order — the static form of the dependency census, used by
// streaming steps that never hold a single Reconstructor to interrogate.
func Folders() []string {
	return []string{
		conditions.FolderECalScale,
		conditions.FolderHCalScale,
		conditions.FolderTrackerAlign,
		conditions.FolderBeamspot,
		conditions.FolderMuonAlign,
	}
}

// ParallelStage returns a per-worker stage factory for the event-flow
// substrate: each worker gets its own Reconstructor (the touched-folder
// ledger is per-instance state), so any worker count reconstructs the
// stream safely. Reconstruction draws no random numbers, so parallel
// output is identical to sequential by construction.
func ParallelStage(det *detector.Detector, cfg Config, cond Source) func(worker int) func(*rawdata.Event) (*datamodel.Event, bool, error) {
	return func(int) func(*rawdata.Event) (*datamodel.Event, bool, error) {
		rec := NewWithConfig(det, cfg)
		return func(raw *rawdata.Event) (*datamodel.Event, bool, error) {
			ev, err := rec.Reconstruct(raw, cond)
			if err != nil {
				return nil, false, err
			}
			return ev, true, nil
		}
	}
}

// hit is an unpacked position measurement.
type hit struct {
	layer     int
	r, phi, z float64
	used      bool
}

// cell is an unpacked calorimeter reading.
type cell struct {
	layer    int
	iphi, iz int
	e        float64
	eta, phi float64
	em       bool
	used     bool
}

// Reconstruct runs the full chain on one raw event.
func (r *Reconstructor) Reconstruct(raw *rawdata.Event, cond Source) (*datamodel.Event, error) {
	r.touched = r.touched[:0]
	ecalScale, err := r.payload(cond, conditions.FolderECalScale)
	if err != nil {
		return nil, err
	}
	hcalScale, err := r.payload(cond, conditions.FolderHCalScale)
	if err != nil {
		return nil, err
	}
	if _, err := r.payload(cond, conditions.FolderTrackerAlign); err != nil {
		return nil, err
	}
	if _, err := r.payload(cond, conditions.FolderBeamspot); err != nil {
		return nil, err
	}
	if _, err := r.payload(cond, conditions.FolderMuonAlign); err != nil {
		return nil, err
	}

	out := &datamodel.Event{Run: raw.Run, Number: raw.Number, Tier: datamodel.TierRECO}

	trackerHits := r.unpackHits(&r.scrTrackerHits, raw.Bank(rawdata.PartTracker))
	muonHits := r.unpackHits(&r.scrMuonHits, raw.Bank(rawdata.PartMuon))
	cells := r.unpackCells(raw, ecalScale["scale"], hcalScale["scale"])

	out.Tracks = r.findTracks(trackerHits)
	out.Vertices = r.findVertices(out.Tracks)
	out.Clusters = r.cluster(cells)
	r.buildCandidates(out, muonHits)
	r.computeMET(out, cells)
	return out, nil
}

func (r *Reconstructor) payload(cond Source, folder string) (conditions.Payload, error) {
	p, err := cond.Lookup(folder)
	if err != nil {
		return nil, fmt.Errorf("reco: resolving %s: %w", folder, err)
	}
	r.touched = append(r.touched, folder)
	return p, nil
}

// unpackHits converts bank words to positioned hits via the channel grid,
// filling the given per-instance scratch slice.
func (r *Reconstructor) unpackHits(scratch *[]hit, bank *rawdata.Bank) []hit {
	if bank == nil {
		return nil
	}
	hits := (*scratch)[:0]
	defer func() { *scratch = hits }()
	for _, w := range bank.Words {
		li := w.Channel.Layer()
		if li < 0 || li >= len(r.det.Layers) {
			continue
		}
		l := r.det.Layer(li)
		phi, z := l.CellCenter(w.Channel.IPhi(), w.Channel.IZ())
		hits = append(hits, hit{layer: li, r: l.Radius, phi: phi, z: z})
	}
	return hits
}

// unpackCells converts calorimeter words to calibrated cells. The scale
// payloads correct the drifting response recorded in the conditions
// database.
func (r *Reconstructor) unpackCells(raw *rawdata.Event, ecalScale, hcalScale float64) []cell {
	if ecalScale <= 0 {
		ecalScale = 1
	}
	if hcalScale <= 0 {
		hcalScale = 1
	}
	out := r.scrCells[:0]
	defer func() { r.scrCells = out }()
	unpack := func(bank *rawdata.Bank, em bool, scale float64) {
		if bank == nil {
			return
		}
		for _, w := range bank.Words {
			li := w.Channel.Layer()
			if li < 0 || li >= len(r.det.Layers) {
				continue
			}
			l := r.det.Layer(li)
			phi, z := l.CellCenter(w.Channel.IPhi(), w.Channel.IZ())
			theta := math.Atan2(l.Radius, z)
			eta := -math.Log(math.Tan(theta / 2))
			out = append(out, cell{
				layer: li, iphi: w.Channel.IPhi(), iz: w.Channel.IZ(),
				e: rawdata.DecodeEnergy(w.ADC) / scale, eta: eta, phi: phi, em: em,
			})
		}
	}
	unpack(raw.Bank(rawdata.PartECal), true, ecalScale)
	unpack(raw.Bank(rawdata.PartHCal), false, hcalScale)
	return out
}

// findTracks runs seeded pattern recognition: a pair of hits on two inner
// pixel layers defines a helix hypothesis (φ(r) = φ0 − k·r in the
// small-angle regime). The hypothesis is refined progressively — after each
// layer's hit is attached, the line parameters are refit over everything
// collected so far — because a two-pixel seed alone extrapolates too
// coarsely over the metre-scale lever arm to the outer strips. Seeds are
// tried from several inner-layer pairs so a single missing pixel hit does
// not kill the track.
func (r *Reconstructor) findTracks(hits []hit) []datamodel.Track {
	trackerLayers := r.trackerLayers
	if len(trackerLayers) < 3 {
		return nil
	}
	layers := r.indexHits(hits)
	if cap(r.scrCollected) < len(trackerLayers) {
		r.scrCollected = make([]*hit, 0, len(trackerLayers))
	}
	seedPairs := [3][2]int{
		{trackerLayers[0], trackerLayers[1]},
		{trackerLayers[0], trackerLayers[2]},
		{trackerLayers[1], trackerLayers[2]},
	}
	var tracks []datamodel.Track
	for _, pair := range seedPairs {
		for _, h1 := range layers[pair[0]].bank {
			if h1.used {
				continue
			}
			for _, h2 := range layers[pair[1]].bank {
				if h2.used || h1.used {
					continue
				}
				if collected, ok := r.followSeed(layers, h1, h2); ok {
					if trk, ok := r.fitTrack(collected); ok {
						tracks = append(tracks, trk)
						for _, h := range collected {
							h.used = true
						}
						break // h1 consumed; next seed hit
					}
				}
			}
		}
	}
	sort.Slice(tracks, func(i, j int) bool { return tracks[i].P.Pt() > tracks[j].P.Pt() })
	return tracks
}

// layerHits is one layer's hits in the current event: in bank order for
// the seed loops, and, for tracker layers, sorted by (φ, bank position) so
// the follower can binary-search a φ window instead of scanning the layer.
type layerHits struct {
	bank  []*hit
	byPhi []phiHit
	// maxAbsPhi is the largest |φ| in the layer; it sizes the rounding
	// slack of the search window.
	maxAbsPhi float64
}

// phiHit is one entry of a layer's φ index.
type phiHit struct {
	phi float64 // the hit's φ wrapped into (−π, π]
	pos int     // the hit's position in the layer's bank order
}

// indexHits files every hit under its layer in bank order and builds the
// φ index of each tracker layer, in per-instance scratch.
func (r *Reconstructor) indexHits(hits []hit) []layerHits {
	if len(r.scrLayers) < len(r.det.Layers) {
		r.scrLayers = make([]layerHits, len(r.det.Layers))
	}
	layers := r.scrLayers
	for i := range layers {
		layers[i].bank = layers[i].bank[:0]
	}
	for i := range hits {
		l := &layers[hits[i].layer]
		l.bank = append(l.bank, &hits[i])
	}
	for _, li := range r.trackerLayers {
		l := &layers[li]
		l.byPhi, l.maxAbsPhi = l.byPhi[:0], 0
		for pos, h := range l.bank {
			l.byPhi = append(l.byPhi, phiHit{phi: wrapPhi(h.phi), pos: pos})
			l.maxAbsPhi = math.Max(l.maxAbsPhi, math.Abs(h.phi))
		}
		slices.SortFunc(l.byPhi, func(a, b phiHit) int {
			if c := cmp.Compare(a.phi, b.phi); c != 0 {
				return c
			}
			return a.pos - b.pos
		})
	}
	return layers
}

// best returns the hit the layer's linear scan in bank order would pick:
// the unused hit with the smallest |wrapPhi(φ − predPhi)| below tol and
// |z − predZ| below zTol, the earliest in bank order on a tie. It visits
// only the φ window [pred − w, pred + w), split across ±π when it wraps,
// where w exceeds tol by a slack that covers the rounding of the wrapped
// differences, so the window holds every hit the predicate accepts. The
// predicate itself is applied unchanged.
func (l *layerHits) best(predPhi, predZ, tol, zTol float64) *hit {
	bestD, bestPos := tol, -1
	pick := func(from, to int) {
		for i := from; i < to; i++ {
			e := l.byPhi[i]
			h := l.bank[e.pos]
			if h.used {
				continue
			}
			d := math.Abs(wrapPhi(h.phi - predPhi))
			if (d < bestD || d == bestD && bestPos >= 0 && e.pos < bestPos) && math.Abs(h.z-predZ) < zTol {
				bestD, bestPos = d, e.pos
			}
		}
	}
	n := len(l.byPhi)
	m := math.Abs(predPhi) + l.maxAbsPhi
	if w := tol + 1e-9*(1+m*m); !(w < math.Pi) {
		pick(0, n)
	} else {
		c := wrapPhi(predPhi)
		lo, hi := c-w, c+w
		pick(l.search(lo), l.search(hi))
		if lo < -math.Pi {
			pick(l.search(lo+2*math.Pi), n)
		}
		if hi > math.Pi {
			pick(0, l.search(hi-2*math.Pi))
		}
	}
	if bestPos < 0 {
		return nil
	}
	return l.bank[bestPos]
}

// search returns the position of the first index entry with φ ≥ phi.
func (l *layerHits) search(phi float64) int {
	return sort.Search(len(l.byPhi), func(i int) bool { return l.byPhi[i].phi >= phi })
}

// followSeed grows a seed pair into a hit collection by predicting each
// further layer from a running least-squares refit. The collection lives in
// per-instance scratch and is valid until the next call.
func (r *Reconstructor) followSeed(layers []layerHits, h1, h2 *hit) ([]*hit, bool) {
	dr := h2.r - h1.r
	if dr <= 0 {
		return nil, false
	}
	dphi := wrapPhi(h2.phi - h1.phi)
	// Reject pairs more bent than the lowest-pT track of interest.
	if math.Abs(dphi/dr) > 0.3*r.det.BField/(2000*0.8*r.cfg.MinTrackPt) {
		return nil, false
	}
	collected := append(r.scrCollected[:0], h1, h2)
	// Tracker layers still to visit; the seed's two are never revisited.
	remaining := len(r.trackerLayers) - 2
	for _, li := range r.trackerLayers {
		if li == h1.layer || li == h2.layer {
			continue
		}
		if len(collected)+remaining < r.cfg.MinLayers {
			return nil, false // too few layers left to reach MinLayers
		}
		remaining--
		phi0, k, z0, zSlope, ok := fitLine(collected)
		if !ok {
			return nil, false
		}
		l := r.det.Layer(li)
		predPhi := phi0 - k*l.Radius
		predZ := z0 + zSlope*l.Radius
		// The tolerance widens with the extrapolation distance from the
		// outermost collected hit.
		outermost := collected[len(collected)-1].r
		tol := r.cfg.SeedPhiTolerance * (1 + (l.Radius-outermost)/200)
		if best := layers[li].best(predPhi, predZ, tol, r.cfg.SeedZTolerance); best != nil {
			collected = append(collected, best)
		}
	}
	if len(collected) < r.cfg.MinLayers {
		return nil, false
	}
	return collected, true
}

// fitLine least-squares fits φ(r) = φ0 − k·r and z(r) = z0 + s·r over hits.
func fitLine(hs []*hit) (phi0, k, z0, zSlope float64, ok bool) {
	n := float64(len(hs))
	ref := hs[0].phi
	var sr, srr, sphi, srphi, sz, srz float64
	for _, h := range hs {
		phi := ref + wrapPhi(h.phi-ref)
		sr += h.r
		srr += h.r * h.r
		sphi += phi
		srphi += h.r * phi
		sz += h.z
		srz += h.r * h.z
	}
	det := n*srr - sr*sr
	if det == 0 {
		return 0, 0, 0, 0, false
	}
	slopePhi := (n*srphi - sr*sphi) / det
	phi0 = (sphi*srr - sr*srphi) / det
	k = -slopePhi
	zSlope = (n*srz - sr*sz) / det
	z0 = (sz*srr - sr*srz) / det
	return phi0, k, z0, zSlope, true
}

// fitTrack converts the final line fit over the collected hits into a
// measured track.
func (r *Reconstructor) fitTrack(hs []*hit) (datamodel.Track, bool) {
	phi0, k, z0, zSlope, ok := fitLine(hs)
	if !ok {
		return datamodel.Track{}, false
	}
	var pt, charge float64
	if math.Abs(k) < 1e-7 {
		// Straight within resolution: saturate at the momentum scale where
		// curvature becomes unmeasurable.
		pt = 500
		charge = 1
	} else {
		charge = math.Copysign(1, k)
		pt = 0.3 * r.det.BField / (2000 * math.Abs(k))
	}
	if pt < r.cfg.MinTrackPt {
		return datamodel.Track{}, false
	}
	if pt > 2000 {
		pt = 2000
	}
	eta := math.Asinh(zSlope)
	p := fourvec.PtEtaPhiM(pt, eta, wrapPhi(phi0), 0.13957)
	// Residual-based fit quality.
	var chi2 float64
	for _, h := range hs {
		res := wrapPhi(h.phi - (phi0 - k*h.r))
		chi2 += res * res / (2e-4 * 2e-4)
	}
	return datamodel.Track{
		P: p, Charge: charge, Z0: z0, D0: 0,
		NHits: len(hs), Chi2: chi2 / float64(len(hs)),
	}, true
}

// findVertices histograms track z0 values and turns local clusters into
// vertices — the "local-maximum-finding" half of the paper's description.
func (r *Reconstructor) findVertices(tracks []datamodel.Track) []datamodel.VertexFit {
	if len(tracks) == 0 {
		return nil
	}
	zs := r.scrZs[:0]
	for _, t := range tracks {
		zs = append(zs, t.Z0)
	}
	r.scrZs = zs
	sort.Float64s(zs)
	var vertices []datamodel.VertexFit
	i := 0
	for i < len(zs) {
		j := i
		sum := 0.0
		for j < len(zs) && zs[j]-zs[i] < r.cfg.VertexWindowZ {
			sum += zs[j]
			j++
		}
		n := j - i
		if n >= 2 {
			mean := sum / float64(n)
			var chi2 float64
			for _, z := range zs[i:j] {
				chi2 += (z - mean) * (z - mean)
			}
			vertices = append(vertices, datamodel.VertexFit{
				Z: mean, NTracks: n, Chi2: chi2 / float64(n),
			})
		}
		i = j
	}
	sort.Slice(vertices, func(a, b int) bool { return vertices[a].NTracks > vertices[b].NTracks })
	return vertices
}

// cluster groups calorimeter cells around local maxima.
func (r *Reconstructor) cluster(cells []cell) []datamodel.Cluster {
	idx := growInts(&r.scrIdx, len(cells))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return cells[idx[a]].e > cells[idx[b]].e })
	var clusters []datamodel.Cluster
	for _, i := range idx {
		seed := &cells[i]
		if seed.used || seed.e < r.cfg.ClusterSeedE {
			continue
		}
		seed.used = true
		sumE, sumEta, sumPhi := seed.e, seed.e*seed.eta, seed.e*seed.phi
		nCells := 1
		for j := range cells {
			c := &cells[j]
			if c.used || c.layer != seed.layer || c.e < r.cfg.ClusterCellE {
				continue
			}
			if absInt(c.iphi-seed.iphi) <= 1 && absInt(c.iz-seed.iz) <= 1 {
				c.used = true
				sumE += c.e
				sumEta += c.e * c.eta
				sumPhi += c.e * c.phi
				nCells++
			}
		}
		clusters = append(clusters, datamodel.Cluster{
			E: sumE, Eta: sumEta / sumE, Phi: sumPhi / sumE,
			EM: seed.em, NCells: nCells,
		})
	}
	return clusters
}

// buildCandidates refines tracks and clusters into candidate physics
// objects: muons (track + muon-system match), electrons (track + EM
// cluster with E/p near 1), photons (unmatched EM cluster), and cone jets.
//
// The pair loops here — isolation cones, track-cluster matching, jet
// cones — run on columnar kinematics: the track momenta and cluster
// vectors are loaded into fourvec.Slabs and their pt/η/φ derived once per
// event, so the O(n²) comparisons read cached columns instead of
// recomputing four transcendentals per pair. The slab columns are
// produced by exactly the Vec methods the scalar loops called, so every
// cone decision (and therefore every output bit) is unchanged.
func (r *Reconstructor) buildCandidates(out *datamodel.Event, muonHits []hit) {
	usedTrack := growBools(&r.scrUsedTrack, len(out.Tracks))
	usedCluster := growBools(&r.scrUsedCluster, len(out.Clusters))

	tk := &r.trackKin
	tk.Reset()
	for i := range out.Tracks {
		tk.Append(out.Tracks[i].P)
	}
	tk.Derive()

	// Cluster vectors, shared by the electron/photon matching and the jet
	// cones: both sections previously rebuilt PtEtaPhiE per pair visit.
	ck := &r.clusterKin
	ck.Reset()
	for i := range out.Clusters {
		c := &out.Clusters[i]
		ck.Append(fourvec.PtEtaPhiE(c.E/math.Cosh(c.Eta), c.Eta, c.Phi, c.E))
	}
	ck.Derive()

	// Muons: extrapolate each track's helix to the chamber radius and
	// demand a hit near the predicted crossing.
	for ti, t := range out.Tracks {
		if tk.Pt(ti) < 3 {
			continue
		}
		rho := tk.Pt(ti) / (0.3 * r.det.BField) * 1000 // mm
		trkPhi, trkEta := tk.Phi(ti), tk.Eta(ti)
		matched := false
		for _, mh := range muonHits {
			arg := mh.r / (2 * rho)
			if arg >= 1 {
				continue // track curls up before the chambers
			}
			predPhi := trkPhi - t.Charge*math.Asin(arg)
			if math.Abs(wrapPhi(mh.phi-predPhi)) < 0.05 &&
				math.Abs(mh.z-(t.Z0+mh.r*math.Sinh(trkEta))) < 500 {
				matched = true
				break
			}
		}
		if !matched {
			continue
		}
		usedTrack[ti] = true
		out.Candidates = append(out.Candidates, datamodel.Candidate{
			Type:   datamodel.ObjMuon,
			P:      fourvec.PtEtaPhiM(tk.Pt(ti), trkEta, trkPhi, 0.10566),
			Charge: t.Charge, Quality: qualityFromChi2(t.Chi2),
			Isolation: r.trackIsolation(tk, ti),
		})
	}

	// Electrons and photons from EM clusters.
	for ci, c := range out.Clusters {
		if !c.EM || c.E < 2 {
			continue
		}
		cv := ck.At(ci)
		cEta, cPhi := ck.Eta(ci), ck.Phi(ci)
		bestTrack := -1
		bestDR := 0.1
		for ti := range out.Tracks {
			if usedTrack[ti] || tk.Pt(ti) < 2 {
				continue
			}
			if dr := fourvec.DeltaREtaPhi(tk.Eta(ti), tk.Phi(ti), cEta, cPhi); dr < bestDR {
				bestDR, bestTrack = dr, ti
			}
		}
		if bestTrack >= 0 {
			t := out.Tracks[bestTrack]
			eOverP := c.E / t.P.P()
			if eOverP > 0.7 && eOverP < 1.5 {
				usedTrack[bestTrack] = true
				usedCluster[ci] = true
				out.Candidates = append(out.Candidates, datamodel.Candidate{
					Type: datamodel.ObjElectron, P: cv, Charge: t.Charge,
					Quality:   qualityFromChi2(t.Chi2),
					Isolation: r.trackIsolation(tk, bestTrack),
				})
				continue
			}
		}
		if c.E > 5 {
			usedCluster[ci] = true
			out.Candidates = append(out.Candidates, datamodel.Candidate{
				Type: datamodel.ObjPhoton, P: cv, Quality: 0.9,
			})
		}
	}

	// Jets: greedy cones over remaining clusters, on the cached cluster
	// columns.
	remaining := r.scrRemaining[:0]
	for ci := range out.Clusters {
		if !usedCluster[ci] {
			remaining = append(remaining, ci)
		}
	}
	r.scrRemaining = remaining
	sort.Slice(remaining, func(a, b int) bool {
		return out.Clusters[remaining[a]].E > out.Clusters[remaining[b]].E
	})
	taken := growBools(&r.scrTaken, len(out.Clusters))
	for _, seedIdx := range remaining {
		if taken[seedIdx] {
			continue
		}
		jetP := ck.At(seedIdx)
		seedEta, seedPhi := ck.Eta(seedIdx), ck.Phi(seedIdx)
		taken[seedIdx] = true
		for _, ci := range remaining {
			if taken[ci] {
				continue
			}
			if fourvec.DeltaREtaPhi(seedEta, seedPhi, ck.Eta(ci), ck.Phi(ci)) < r.cfg.JetConeR {
				jetP = jetP.Add(ck.At(ci))
				taken[ci] = true
			}
		}
		if jetP.Pt() >= r.cfg.JetMinPt {
			out.Candidates = append(out.Candidates, datamodel.Candidate{
				Type: datamodel.ObjJet, P: jetP, Quality: 0.8,
			})
		}
	}
}

// computeMET sums the calibrated calorimeter cells and corrects for muons,
// which traverse the calorimeters as minimum-ionizing particles.
func (r *Reconstructor) computeMET(out *datamodel.Event, cells []cell) {
	var sx, sy, sumEt float64
	for _, c := range cells {
		et := c.e / math.Cosh(c.eta)
		sx += et * math.Cos(c.phi)
		sy += et * math.Sin(c.phi)
		sumEt += et
	}
	for _, cand := range out.Candidates {
		if cand.Type != datamodel.ObjMuon {
			continue
		}
		sx += cand.P.Px
		sy += cand.P.Py
		sumEt += cand.P.Pt()
	}
	out.Missing = datamodel.MET{
		Pt:    math.Hypot(sx, sy),
		Phi:   math.Atan2(-sy, -sx),
		SumEt: sumEt,
	}
}

// trackIsolation sums the pT of other tracks in a ΔR<0.3 cone, reading
// the derived slab columns — the loop that used to dominate candidate
// building with four transcendentals per track pair.
func (r *Reconstructor) trackIsolation(kin *fourvec.Slab, self int) float64 {
	var iso float64
	for i, n := 0, kin.Len(); i < n; i++ {
		if i == self {
			continue
		}
		if kin.DeltaR(i, self) < 0.3 {
			iso += kin.Pt(i)
		}
	}
	return iso
}

// growInts resizes an int scratch slice to n, reusing capacity.
func growInts(scr *[]int, n int) []int {
	if cap(*scr) < n {
		*scr = make([]int, n)
	}
	*scr = (*scr)[:n]
	return *scr
}

// growBools resizes a bool scratch slice to n and clears it.
func growBools(scr *[]bool, n int) []bool {
	if cap(*scr) < n {
		*scr = make([]bool, n)
	}
	s := (*scr)[:n]
	clear(s)
	*scr = s
	return s
}

func qualityFromChi2(chi2 float64) float64 {
	q := 1 / (1 + chi2/10)
	if q < 0 {
		return 0
	}
	return q
}

// wrapPhi maps an angle into (−π, π]. An infinite angle, as an
// unsegmented layer named in a corrupt bank decodes to, has no wrapped
// value: it comes back NaN, which fails every window comparison, instead
// of looping forever.
func wrapPhi(phi float64) float64 {
	if math.IsInf(phi, 0) {
		return math.NaN()
	}
	for phi > math.Pi {
		phi -= 2 * math.Pi
	}
	for phi <= -math.Pi {
		phi += 2 * math.Pi
	}
	return phi
}

func absInt(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
