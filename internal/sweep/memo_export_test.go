package sweep

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// testCodec serializes int values under the "t|" key family — the
// smallest codec exercising the Exportable/Encode/Decode contract.
type testCodec struct{}

func (testCodec) Exportable(key string) bool { return strings.HasPrefix(key, "t|") }

func (testCodec) Encode(key string, val any) (json.RawMessage, bool) {
	n, ok := val.(int)
	if !ok {
		return nil, false
	}
	b, err := json.Marshal(n)
	return b, err == nil
}

func (testCodec) Decode(key string, raw json.RawMessage) (any, bool) {
	var n int
	if err := json.Unmarshal(raw, &n); err != nil {
		return nil, false
	}
	return n, true
}

func fill(t *testing.T, m *Memo, kv map[string]int) {
	t.Helper()
	for k, v := range kv {
		if _, err := m.Do(k, func() (any, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMemoExport: Export emits the keys of the exportable
// families only, sorted, each with the codec's bytes.
func TestMemoExport(t *testing.T) {
	m := NewMemo(0)
	m.SetCodec(testCodec{})
	fill(t, m, map[string]int{"t|b": 2, "t|a": 1, "x|c": 3})

	entries := m.Export(nil)
	want := []Entry{{Key: "t|a", Value: json.RawMessage(`1`)}, {Key: "t|b", Value: json.RawMessage(`2`)}}
	if !reflect.DeepEqual(entries, want) {
		t.Fatalf("Export(nil) = %+v, want t|a then t|b (sorted, exportable families only)", entries)
	}
	// Subsets skip absent keys silently.
	sub := m.Export([]string{"t|b", "t|missing"})
	if len(sub) != 1 || sub[0].Key != "t|b" {
		t.Fatalf("Export(subset) = %+v, want only t|b", sub)
	}
}

func TestMemoImportRoundTrip(t *testing.T) {
	src := NewMemo(0)
	src.SetCodec(testCodec{})
	fill(t, src, map[string]int{"t|a": 1, "t|b": 2})

	dst := NewMemo(0)
	dst.SetCodec(testCodec{})
	if n := dst.Import(src.Export(nil)); n != 2 {
		t.Fatalf("Import = %d, want 2", n)
	}
	if dst.Imports() != 2 {
		t.Fatalf("Imports() = %d, want 2", dst.Imports())
	}
	// Imported entries serve without recomputing.
	recomputed := false
	v, err := dst.Do("t|a", func() (any, error) { recomputed = true; return -1, nil })
	if err != nil || v.(int) != 1 || recomputed {
		t.Fatalf("Do after import = %v, %v (recomputed=%v); want warm 1", v, err, recomputed)
	}
	if dst.Computes() != 0 {
		t.Fatalf("Computes() = %d after warm-only serving, want 0", dst.Computes())
	}
	// And re-export byte-identically.
	if a, b := src.Export(nil), dst.Export(nil); !reflect.DeepEqual(a, b) {
		t.Fatalf("re-export diverged:\n src %+v\n dst %+v", a, b)
	}
}

func TestMemoImportRejectsBadEntries(t *testing.T) {
	m := NewMemo(0)
	m.SetCodec(testCodec{})
	bad := []Entry{
		{Key: "x|f", Value: json.RawMessage(`1`)},   // unknown family
		{Key: "t|c", Value: json.RawMessage(`"s"`)}, // fails decode
	}
	if n := m.Import(bad); n != 0 {
		t.Fatalf("Import(bad) = %d, want 0", n)
	}
	if m.Len() != 0 {
		t.Fatalf("bad entries became resident: Len = %d", m.Len())
	}
}

func TestMemoImportKeepsResident(t *testing.T) {
	m := NewMemo(0)
	m.SetCodec(testCodec{})
	fill(t, m, map[string]int{"t|a": 7})
	if n := m.Import([]Entry{{Key: "t|a", Value: json.RawMessage(`99`)}}); n != 0 {
		t.Fatalf("Import over resident key = %d, want 0 (local entry wins)", n)
	}
	v, err := m.Do("t|a", func() (any, error) { return -1, nil })
	if err != nil || v.(int) != 7 {
		t.Fatalf("resident value overwritten: got %v, want 7", v)
	}
}

// countingCodec counts Decode calls, so a test can see which imported
// entries were decoded.
type countingCodec struct {
	testCodec
	decodes atomic.Int64
}

func (c *countingCodec) Decode(key string, raw json.RawMessage) (any, bool) {
	c.decodes.Add(1)
	return c.testCodec.Decode(key, raw)
}

// TestMemoImportSkipsResidentBeforeDecoding: a replaying job imports
// cells the memo often holds already (the boot warm-up or the job's
// first run left them resident). Those entries must not be decoded, and
// Imports() counts only the new ones.
func TestMemoImportSkipsResidentBeforeDecoding(t *testing.T) {
	codec := &countingCodec{}
	m := NewMemo(0)
	m.SetCodec(codec)
	fill(t, m, map[string]int{"t|a": 1})
	entries := []Entry{
		{Key: "t|b", Value: json.RawMessage(`2`)},
		{Key: "t|c", Value: json.RawMessage(`3`)},
	}
	if n := m.Import(entries); n != 2 || codec.decodes.Load() != 2 {
		t.Fatalf("first import installed %d with %d decodes, want 2 and 2", n, codec.decodes.Load())
	}
	imports := m.Imports()
	resident := append(entries, Entry{Key: "t|a", Value: json.RawMessage(`1`)})
	if n := m.Import(resident); n != 0 {
		t.Fatalf("importing resident keys installed %d, want 0", n)
	}
	if d := codec.decodes.Load(); d != 2 {
		t.Fatalf("importing resident keys decoded %d entries, want none", d-2)
	}
	if m.Imports() != imports {
		t.Fatalf("Imports() = %d after importing resident keys, want %d", m.Imports(), imports)
	}
}

// TestMemoImportConcurrent: goroutines importing overlapping entries,
// each a job replaying its cells, install every key exactly once.
func TestMemoImportConcurrent(t *testing.T) {
	m := NewMemo(0)
	m.SetCodec(testCodec{})
	entries := make([]Entry, 32)
	for i := range entries {
		entries[i] = Entry{Key: fmt.Sprintf("t|%d", i), Value: json.RawMessage(fmt.Sprint(i))}
	}
	var wg sync.WaitGroup
	var installed atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine starts at a different entry, so imports of
			// one key race.
			installed.Add(int64(m.Import(append(entries[g*4:], entries[:g*4]...))))
		}(g)
	}
	wg.Wait()
	if n := installed.Load(); n != int64(len(entries)) || m.Imports() != n || m.Len() != len(entries) {
		t.Fatalf("installed %d, Imports() %d, Len %d; want each of %d keys once", n, m.Imports(), m.Len(), len(entries))
	}
}

func TestMemoImportEvictsWithinCap(t *testing.T) {
	m := NewMemo(2)
	m.SetCodec(testCodec{})
	src := NewMemo(0)
	src.SetCodec(testCodec{})
	fill(t, src, map[string]int{"t|a": 1, "t|b": 2, "t|c": 3, "t|d": 4})
	m.Import(src.Export(nil))
	if m.Len() != 2 {
		t.Fatalf("Len = %d after over-cap import, want 2", m.Len())
	}
}

func TestMemoNoCodecDisablesExchange(t *testing.T) {
	m := NewMemo(0)
	fill(t, m, map[string]int{"t|a": 1})
	if m.Export(nil) != nil {
		t.Fatal("codec-less memo must not export")
	}
	if n := m.Import([]Entry{{Key: "t|a", Value: json.RawMessage(`1`)}}); n != 0 {
		t.Fatalf("codec-less Import = %d, want 0", n)
	}
}
