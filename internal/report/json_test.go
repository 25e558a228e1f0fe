package report

import (
	"encoding/json"
	"testing"
)

func TestTableJSONRoundTrip(t *testing.T) {
	tb := NewTable("Power", "watts", "ratio")
	tb.AddRow("baseline", 100, 1)
	tb.AddRow("greendimm", 52.5, 0.525)
	b, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"title":"Power","columns":["watts","ratio"],"rows":[` +
		`{"label":"baseline","values":["100","1"]},` +
		`{"label":"greendimm","values":["52.5","0.525"]}]}`
	if string(b) != want {
		t.Errorf("marshal = %s\nwant      %s", b, want)
	}
	var back Table
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.String() != tb.String() {
		t.Errorf("round trip renders\n%s\nwant\n%s", back.String(), tb.String())
	}
}

func TestTableJSONEmpty(t *testing.T) {
	b, err := json.Marshal(NewTable(""))
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"columns":[],"rows":[]}`; string(b) != want {
		t.Errorf("marshal = %s, want %s", b, want)
	}
}

// FuzzTableJSON decodes arbitrary bytes as a table. Any table the
// decoder accepts has one value per column in every row, renders with
// String, returns every Value(r, c) for c < len(Columns), and survives a
// MarshalJSON round trip: the re-decoded table marshals to the same
// bytes and renders the same. A peer's job view carries its tables in
// this form, and a ragged row used to panic Value.
func FuzzTableJSON(f *testing.F) {
	tb := NewTable("Power", "watts", "ratio")
	tb.AddRow("baseline", 100, 1)
	tb.AddRow("greendimm", 52.5, 0.525)
	seed, err := json.Marshal(tb)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"columns":[],"rows":[]}`))
	f.Add([]byte(`{"columns":["a","b"],"rows":[{"label":"x","values":["1"]}]}`))
	f.Add([]byte(`{"columns":["a"],"rows":[{"label":"x","values":["1","2"]}]}`))
	f.Add([]byte(`{"columns":["a"],"rows":[{"label":"x","values":null}]}`))
	f.Add([]byte(`{"title":"t","columns":null,"rows":[{"label":"x","values":[]}]}`))
	f.Add([]byte("{\"columns\":[\"é\"],\"rows\":[{\"label\":\"\xff\",\"values\":[\"<&>\"]}]}"))
	f.Add([]byte(`null`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, b []byte) {
		var tb Table
		if err := json.Unmarshal(b, &tb); err != nil {
			return
		}
		for r, row := range tb.rows {
			if len(row.values) != len(tb.Columns) {
				t.Fatalf("accepted row %d with %d values for %d columns", r, len(row.values), len(tb.Columns))
			}
		}
		text := tb.String()
		for r := 0; r < tb.Rows(); r++ {
			tb.Label(r)
			for c := range tb.Columns {
				tb.Value(r, c)
			}
		}
		out, err := json.Marshal(&tb)
		if err != nil {
			t.Fatalf("marshal of an accepted table: %v", err)
		}
		var back Table
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-decoding %s: %v", out, err)
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(out) {
			t.Fatalf("round trip changed the bytes:\n got %s\nwant %s", again, out)
		}
		if back.String() != text {
			t.Fatalf("round trip changed the rendering:\n got %q\nwant %q", back.String(), text)
		}
	})
}
