package exp

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestMemoCodecRoundTrip(t *testing.T) {
	c := MemoCodec()
	key := "tailsvc|test|daemon=true|seed=1"
	cell := tailCell{Stats: tailStats{Percentile95: 1.5, Percentile99: 2.25}, Events: 42}
	raw, ok := c.Encode(key, cell)
	if !ok {
		t.Fatal("Encode declined a valid cell")
	}
	v, ok := c.Decode(key, raw)
	if !ok {
		t.Fatal("Decode rejected its own encoding")
	}
	if v.(tailCell) != cell {
		t.Fatalf("round trip changed the value: %+v != %+v", v, cell)
	}
	// Encoding must be canonical: re-encoding the decoded value is
	// byte-identical (a replayed cell reaches the sink with these bytes).
	raw2, ok := c.Encode(key, v)
	if !ok || string(raw2) != string(raw) {
		t.Fatalf("re-encode diverged: %s vs %s", raw2, raw)
	}
}

func TestMemoCodecRejects(t *testing.T) {
	c := MemoCodec()
	if c.Exportable("mystery|x") {
		t.Fatal("unknown family reported exportable")
	}
	if _, ok := c.Encode("mystery|x", 1); ok {
		t.Fatal("unknown family encoded")
	}
	if _, ok := c.Decode("mystery|x", json.RawMessage(`1`)); ok {
		t.Fatal("unknown family decoded")
	}
	// Wrong dynamic type for the family.
	if _, ok := c.Encode("tailsvc|x", TimingRun{}); ok {
		t.Fatal("type-mismatched value encoded")
	}
	// Schema drift: an extra field must fail the strict decode.
	good, _ := c.Encode("tailsvc|x", tailCell{Events: 1})
	drifted := json.RawMessage(strings.Replace(string(good), "{", `{"Extra":1,`, 1))
	if _, ok := c.Decode("tailsvc|x", drifted); ok {
		t.Fatal("drifted entry decoded; want strict rejection")
	}
	// Corruption: not JSON at all.
	if _, ok := c.Decode("tailsvc|x", json.RawMessage(`{"Events":`)); ok {
		t.Fatal("corrupt entry decoded")
	}
}
