package reco

import (
	"bytes"
	"testing"

	"daspos/internal/conditions"
	"daspos/internal/detector"
	"daspos/internal/generator"
	"daspos/internal/rawdata"
)

// hostileEvent is a real event plus words no digitizer emits: tracker
// banks naming the beam pipe, calorimeter, muon and out-of-range layers,
// φ cells beyond a layer's segmentation, a muon hit on the unsegmented
// beam pipe, calorimeter words on tracker layers, and a bank of an
// unknown partition.
func hostileEvent(ev *rawdata.Event) *rawdata.Event {
	out := &rawdata.Event{Run: ev.Run, Number: ev.Number}
	for _, b := range ev.Banks {
		words := append([]rawdata.Word(nil), b.Words...)
		switch b.Partition {
		case rawdata.PartTracker:
			for _, li := range []int{0, 10, 11, 12, 13, 14, 63} {
				words = append(words, rawdata.Word{Channel: detector.MakeChannelID(li, 5, 5), ADC: 64})
			}
			words = append(words,
				rawdata.Word{Channel: detector.MakeChannelID(1, 1<<14-1, 3), ADC: 64},
				rawdata.Word{Channel: detector.MakeChannelID(4, 1<<14-1, 1<<12-1), ADC: 64})
		case rawdata.PartMuon:
			// Ahead of the real hits, so every muon-track match visits them.
			words = append([]rawdata.Word{
				{Channel: detector.MakeChannelID(0, 7, 7), ADC: 64},
				{Channel: detector.MakeChannelID(12, 1<<14-1, 0), ADC: 64},
			}, words...)
		case rawdata.PartECal:
			words = append(words, rawdata.Word{Channel: detector.MakeChannelID(1, 9, 9), ADC: 4000},
				rawdata.Word{Channel: detector.MakeChannelID(0, 9, 9), ADC: 4000})
		}
		out.Banks = append(out.Banks, rawdata.Bank{Partition: b.Partition, Words: words})
	}
	out.Banks = append(out.Banks, rawdata.Bank{Partition: 9, Words: []rawdata.Word{{Channel: detector.MakeChannelID(2, 1, 1), ADC: 1}}})
	return out
}

// FuzzReadReconstruct feeds arbitrary bytes through the raw-event reader
// into reconstruction: corrupt or hostile RAW must come back as an error
// or as an event, never as a panic or a hang.
func FuzzReadReconstruct(f *testing.F) {
	det := detector.Standard()
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, "t", 1, 10, 10, 1); err != nil {
		f.Fatal(err)
	}
	cond := db.Snapshot("t", 1)

	raws := sampleRaws(f, det, generator.ProcDrellYanZ, 0, 51, 3)
	encode := func(evs ...*rawdata.Event) []byte {
		var buf bytes.Buffer
		for _, ev := range evs {
			if err := rawdata.WriteEvent(&buf, ev); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	f.Add(encode(raws...))
	for _, raw := range raws {
		f.Add(encode(hostileEvent(raw)))
	}
	f.Add(encode(&rawdata.Event{Run: 1}, raws[0]))
	f.Add(encode(&rawdata.Event{Run: 1, Banks: append(append([]rawdata.Bank(nil), raws[1].Banks...), raws[0].Banks...)}))
	f.Add([]byte{})
	f.Add([]byte("not a raw event stream"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// One reconstructor per input, reused across the input's events, so
		// a failure replays from its input alone.
		rec := New(det)
		rd := rawdata.NewReader(bytes.NewReader(data))
		for {
			raw, err := rd.Read()
			if err != nil {
				return
			}
			if _, err := rec.Reconstruct(raw, cond); err != nil {
				return
			}
		}
	})
}
