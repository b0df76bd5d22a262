package reco

import (
	"math"
	"testing"

	"daspos/internal/detector"
	"daspos/internal/generator"
	"daspos/internal/xrand"
)

// linearBest is the track follower's original per-layer scan: every hit
// of the layer in bank order, keeping the first strictly nearest in φ.
// It is the oracle layerHits.best must reproduce.
func linearBest(bank []*hit, predPhi, predZ, tol, zTol float64) *hit {
	var best *hit
	bestD := tol
	for _, h := range bank {
		if h.used {
			continue
		}
		d := math.Abs(wrapPhi(h.phi - predPhi))
		if d < bestD && math.Abs(h.z-predZ) < zTol {
			best, bestD = h, d
		}
	}
	return best
}

// TestWindowBestMatchesLinearScan checks the φ-window search against the
// linear scan on randomized layers built to stress the window: hits and
// predictions within tol of ±π, predictions many turns outside (−π, π],
// hits within rounding of the window edge, hits from out-of-range φ cells,
// exact φ ties (several hits in one φ cell at different z, and hits
// mirrored about the prediction), used hits, and tolerances up to and
// beyond π.
func TestWindowBestMatchesLinearScan(t *testing.T) {
	det := detector.Standard()
	r := New(det)
	li := r.trackerLayers[4]
	layer := det.Layer(li)
	cellPhi := func(iphi int) float64 {
		phi, _ := layer.CellCenter(iphi, 0)
		return phi
	}
	rng := xrand.New(7)
	tols := []float64{0, 1e-4, 0.02, 0.3, math.Pi - 1e-3, math.Pi, 4, 10}
	const zTol = 30
	checked, found, ties := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		var hits []hit
		add := func(phi, z float64) {
			hits = append(hits, hit{layer: li, r: layer.Radius, phi: phi, z: z})
		}
		for i, n := 0, 1+rng.Intn(60); i < n; i++ {
			z := rng.Range(-100, 100)
			switch rng.Intn(6) {
			case 0: // anywhere
				add(rng.Range(-math.Pi, math.Pi), z)
			case 1: // near +π or −π
				add(math.Copysign(math.Pi-rng.Range(0, 0.05), rng.Range(-1, 1)), z)
			case 2: // one φ cell, several z
				phi := cellPhi(rng.Intn(layer.NPhi))
				for k, m := 0, 2+rng.Intn(3); k < m; k++ {
					add(phi, rng.Range(-60, 60))
				}
			case 3: // the cells either side of the ±π boundary
				add(cellPhi(layer.NPhi/2-1+rng.Intn(3)), z)
			case 4: // φ cell index beyond NPhi, as a corrupt channel decodes
				add(cellPhi(layer.NPhi+rng.Intn(layer.NPhi)), z)
			default: // a copy of an earlier hit's φ
				if len(hits) > 0 {
					add(hits[rng.Intn(len(hits))].phi, z)
				}
			}
		}
		for i := range hits {
			hits[i].used = rng.Intn(5) == 0
		}
		layers := r.indexHits(hits)
		bank := layers[li].bank

		for q := 0; q < 40; q++ {
			tol := tols[rng.Intn(len(tols))]
			var pred float64
			switch rng.Intn(5) {
			case 0:
				pred = rng.Range(-math.Pi, math.Pi)
			case 1: // within a few tol of ±π
				pred = math.Copysign(math.Pi+rng.Range(-0.1, 0.1), rng.Range(-1, 1))
			case 2: // several turns outside (−π, π]
				pred = rng.Range(-math.Pi, math.Pi) + 2*math.Pi*float64(rng.Intn(2001)-1000)
			case 3: // exactly on a hit, or mirrored between two
				if len(hits) > 1 {
					a, b := hits[rng.Intn(len(hits))].phi, hits[rng.Intn(len(hits))].phi
					pred = a
					if rng.Intn(2) == 0 {
						pred = a + wrapPhi(b-a)/2
					}
				}
			default: // far outside, where the search degrades to a full scan
				pred = rng.Range(-1, 1) * 1e5
			}
			predZ := rng.Range(-80, 80)
			want := linearBest(bank, pred, predZ, tol, zTol)
			got := layers[li].best(pred, predZ, tol, zTol)
			if got != want {
				t.Fatalf("trial %d: pred φ %v z %v tol %v: window picked %+v, linear scan %+v", trial, pred, predZ, tol, got, want)
			}
			checked++
			if want != nil {
				found++
				if tiedLater(bank, want, pred, predZ, zTol) {
					ties++
				}
			}
		}
	}
	if found < checked/4 || ties == 0 {
		t.Fatalf("%d of %d predictions matched a hit, %d of them on a tie: the cases are too sparse", found, checked, ties)
	}
	t.Logf("%d predictions, %d matched a hit, %d on a tie", checked, found, ties)

	// A hit within rounding of the window edge, thousands of turns from
	// the prediction: here the predicate's wrapped difference and the
	// window bounds round differently, and the window's slack must cover
	// the gap. About six in ten thousand of the hits the predicate accepts
	// here lie outside a window of exactly tol.
	edge := 0
	for q := 0; q < 40000; q++ {
		hits := []hit{{layer: li, r: layer.Radius, phi: rng.Range(-math.Pi, math.Pi)}}
		layers := r.indexHits(hits)
		const tol = 0.02
		pred := hits[0].phi + math.Copysign(tol+rng.Range(-2e-12, 2e-12), rng.Range(-1, 1)) +
			2*math.Pi*float64(rng.Intn(6001)-3000)
		want := linearBest(layers[li].bank, pred, 0, tol, zTol)
		if got := layers[li].best(pred, 0, tol, zTol); got != want {
			t.Fatalf("edge hit φ %v, pred φ %v: window picked %+v, linear scan %+v", hits[0].phi, pred, got, want)
		}
		if want != nil {
			edge++
		}
	}
	t.Logf("%d window-edge hits accepted", edge)
}

// tiedLater reports whether an unused hit after best in bank order lies
// exactly as near the prediction, so only the tie-break separates them.
func tiedLater(bank []*hit, best *hit, predPhi, predZ, zTol float64) bool {
	d := math.Abs(wrapPhi(best.phi - predPhi))
	after := false
	for _, h := range bank {
		if h == best {
			after = true
			continue
		}
		if after && !h.used && math.Abs(wrapPhi(h.phi-predPhi)) == d && math.Abs(h.z-predZ) < zTol {
			return true
		}
	}
	return false
}

// TestWarmReconstructAllocs bounds the allocations of a warm
// Reconstructor at the production pileup. Track following runs out of
// per-instance scratch, so what remains are the output event's slices
// and the sorts.
func TestWarmReconstructAllocs(t *testing.T) {
	c := newChain(t, 41)
	raws := sampleRaws(t, c.det, generator.ProcDrellYanZ, 20, 41, 8)
	for _, raw := range raws {
		if _, err := c.rec.Reconstruct(raw, c.cond); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(5*len(raws), func() {
		if _, err := c.rec.Reconstruct(raws[i%len(raws)], c.cond); err != nil {
			t.Fatal(err)
		}
		i++
	})
	const maxAllocs = 33 // measured 30
	if allocs > maxAllocs {
		t.Fatalf("warm Reconstruct at pileup 20: %.1f allocs/event, bound %d", allocs, maxAllocs)
	}
	t.Logf("warm Reconstruct at pileup 20: %.1f allocs/event", allocs)
}
