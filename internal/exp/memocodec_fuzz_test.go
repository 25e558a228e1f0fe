package exp

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzMemoCodecDecode probes the codec that every memo value read from
// disk (the job journal) or the network (a peer's memo fetch) passes
// through: Decode never panics, and a value it accepts re-encodes to
// exactly the compacted input, so an accepted entry is the canonical
// bytes a local compute would have produced.
func FuzzMemoCodecDecode(f *testing.F) {
	c := MemoCodec()
	seeds := []struct {
		key string
		v   any
	}{
		{"timing|x", TimingRun{App: "mcf", Copies: 2, Runtime: 5, SelfRefFrac: 0.25}},
		{"dynamics|x", DynamicsRun{App: "lbm", BlockMB: 128, OnOffEvents: 3}},
		{"vmday|x", VMDayResult{WithKSM: true, Samples: []VMDaySample{{}}, AvgUsedFrac: 0.5}},
		{"tailsvc|x", tailCell{Stats: tailStats{Percentile95: 1.5, Percentile99: 2.25}, Events: 42}},
	}
	for _, s := range seeds {
		raw, ok := c.Encode(s.key, s.v)
		if !ok {
			f.Fatalf("Encode declined the %s seed", s.key)
		}
		f.Add(s.key, []byte(raw))
		var pretty bytes.Buffer
		if err := json.Indent(&pretty, raw, "", "  "); err != nil {
			f.Fatal(err)
		}
		f.Add(s.key, pretty.Bytes())
	}
	f.Add("tailsvc|x", []byte(`{"Events":`))
	f.Add("tailsvc|x", []byte(`{"Stats":{"Percentile95":1,"Percentile99":2},"Events":1} {}`))
	f.Add("tailsvc|x", []byte(`{"Extra":1,"Stats":{"Percentile95":0,"Percentile99":0},"Events":0}`))
	f.Add("timing|x", []byte(`null`))
	f.Add("mystery|x", []byte(`1`))
	f.Fuzz(func(t *testing.T, key string, raw []byte) {
		v, ok := c.Decode(key, raw)
		if !ok {
			return
		}
		enc, ok := c.Encode(key, v)
		if !ok {
			t.Fatalf("Decode(%q) accepted %q but Encode declines the value", key, raw)
		}
		var want bytes.Buffer
		if err := json.Compact(&want, raw); err != nil {
			t.Fatalf("Decode(%q) accepted invalid JSON %q", key, raw)
		}
		if !bytes.Equal(enc, want.Bytes()) {
			t.Fatalf("Decode(%q) accepted %q, which re-encodes to %q", key, want.Bytes(), enc)
		}
	})
}
