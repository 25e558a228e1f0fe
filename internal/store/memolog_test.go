package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openTestMemoLog(t *testing.T, dir string, opts MemoLogOptions) *MemoLog {
	t.Helper()
	l, err := OpenMemoLog(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestMemoLogRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l := openTestMemoLog(t, dir, MemoLogOptions{})
	for i := 0; i < 5; i++ {
		if err := l.Put(fmt.Sprintf("k%d", i), json.RawMessage(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTestMemoLog(t, dir, MemoLogOptions{})
	defer r.Close()
	got := r.Entries()
	if len(got) != 5 {
		t.Fatalf("recovered %d entries, want 5", len(got))
	}
	// Insertion order survives recovery (oldest first).
	for i, c := range got {
		if c.Key != fmt.Sprintf("k%d", i) || string(c.Value) != fmt.Sprintf("%d", i) {
			t.Fatalf("entry %d = %s=%s, want k%d=%d", i, c.Key, c.Value, i, i)
		}
	}
	if st := r.Stats(); st.Replayed != 5 || st.TruncatedTail {
		t.Fatalf("stats = %+v, want 5 replayed, no truncation", st)
	}
}

func TestMemoLogDuplicateKeySkipped(t *testing.T) {
	dir := t.TempDir()
	l := openTestMemoLog(t, dir, MemoLogOptions{})
	defer l.Close()
	if err := l.Put("k", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Put("k", json.RawMessage(`2`)); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 || string(l.Entries()[0].Value) != "1" {
		t.Fatalf("duplicate Put changed the log: %+v", l.Entries())
	}
	if st := l.Stats(); st.Appends != 1 {
		t.Fatalf("Appends = %d, want 1 (duplicate must not touch the WAL)", st.Appends)
	}
}

func TestMemoLogSkipsForeignVersionRecords(t *testing.T) {
	dir := t.TempDir()
	l := openTestMemoLog(t, dir, MemoLogOptions{})
	if err := l.Put("k0", json.RawMessage(`0`)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Append a well-framed record from a "future" format version.
	body, _ := json.Marshal(memoWALEntry{Seq: 99, V: memoLogVersion + 1, Key: "future", Value: json.RawMessage(`1`)})
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(encodeLine(body)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := openTestMemoLog(t, dir, MemoLogOptions{})
	defer r.Close()
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (foreign-version record skipped)", r.Len())
	}
	// The skipped record still advanced seq, so new appends stay monotone.
	if err := r.Put("k1", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2 := openTestMemoLog(t, dir, MemoLogOptions{})
	defer r2.Close()
	if r2.Len() != 2 {
		t.Fatalf("Len = %d after foreign-version skip + append, want 2", r2.Len())
	}
}
