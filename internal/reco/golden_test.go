package reco

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/generator"
	"daspos/internal/rawdata"
	"daspos/internal/sim"
)

// goldenCase is one fixed (process, pileup, seed) sample whose encoded RECO
// stream is pinned by digest.
type goldenCase struct {
	name    string
	process int
	mu      float64
	seed    uint64
	events  int
}

var goldenCases = []goldenCase{
	{"dy-mu0", generator.ProcDrellYanZ, 0, 101, 50},
	{"dy-mu20", generator.ProcDrellYanZ, 20, 102, 40},
	{"dy-mu50", generator.ProcDrellYanZ, 50, 103, 20},
	{"dijet-mu20", generator.ProcQCDDijet, 20, 104, 30},
	{"zprime-mu0", generator.ProcZPrime, 0, 105, 40},
}

// goldenFile holds one "version <v>" line, then one
// "<case> <raw sha256> <reco sha256>" line per case. The digests were
// produced by reco-3.2.1 before its track follower was φ-indexed; they
// are never regenerated to make a change pass.
const goldenFile = "testdata/reco_golden.txt"

// sampleRaws generates, simulates and digitizes n events of one process.
func sampleRaws(t testing.TB, det *detector.Detector, process int, mu float64, seed uint64, n int) []*rawdata.Event {
	t.Helper()
	cfg := generator.DefaultConfig(seed)
	cfg.PileupMu = mu
	gen, err := generator.New(process, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := sim.NewFullSim(det, seed)
	raws := make([]*rawdata.Event, n)
	for i := range raws {
		raws[i] = rawdata.Digitize(1, full.SimulateSeeded(gen.Generate()))
	}
	return raws
}

// TestReconstructGolden pins the encoded RECO stream of fixed samples: a
// reconstruction release must reprocess preserved RAW bit-identically. The
// RAW digest is pinned too, so a mismatch there points at the generator,
// simulation or digitizer rather than at reconstruction.
func TestReconstructGolden(t *testing.T) {
	c := newChain(t, 1)
	version, want := readGolden(t)
	if c.rec.Version != version {
		t.Fatalf("Reconstructor.Version = %q, golden digests are for %q", c.rec.Version, version)
	}
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			raws := sampleRaws(t, c.det, gc.process, gc.mu, gc.seed, gc.events)
			rawHash := sha256.New()
			events := make([]*datamodel.Event, len(raws))
			for i, raw := range raws {
				if err := rawdata.WriteEvent(rawHash, raw); err != nil {
					t.Fatal(err)
				}
				ev, err := c.rec.Reconstruct(raw, c.cond)
				if err != nil {
					t.Fatal(err)
				}
				events[i] = ev
			}
			recoHash := sha256.New()
			if _, err := datamodel.WriteEvents(recoHash, datamodel.TierRECO, events); err != nil {
				t.Fatal(err)
			}
			gotRaw := hex.EncodeToString(rawHash.Sum(nil))
			gotReco := hex.EncodeToString(recoHash.Sum(nil))
			w, ok := want[gc.name]
			switch {
			case !ok:
				t.Fatalf("no golden digest for case; computed: %s %s %s", gc.name, gotRaw, gotReco)
			case gotRaw != w[0]:
				t.Fatalf("RAW input changed (generator, sim or digitizer), so the RECO digest cannot be compared: raw %s, golden %s", gotRaw, w[0])
			case gotReco != w[1]:
				t.Fatalf("RECO output differs from %s: sha256 %s, golden %s", version, gotReco, w[1])
			}
		})
	}
}

func readGolden(t *testing.T) (version string, digests map[string][2]string) {
	t.Helper()
	f, err := os.Open(filepath.FromSlash(goldenFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	digests = make(map[string][2]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 0 || strings.HasPrefix(fields[0], "#"):
		case fields[0] == "version" && len(fields) == 2:
			version = fields[1]
		case len(fields) == 3:
			digests[fields[0]] = [2]string{fields[1], fields[2]}
		default:
			t.Fatalf("%s: malformed line %q", goldenFile, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return version, digests
}
