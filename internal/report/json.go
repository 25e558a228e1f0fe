package report

import (
	"encoding/json"
	"fmt"
)

// tableJSON is the wire form of a Table: the grid as labeled rows of
// preformatted cells, so daemon clients see exactly the numbers the CLI
// prints.
type tableJSON struct {
	Title   string    `json:"title,omitempty"`
	Columns []string  `json:"columns"`
	Rows    []rowJSON `json:"rows"`
}

type rowJSON struct {
	Label  string   `json:"label"`
	Values []string `json:"values"`
}

// MarshalJSON renders the table as {title, columns, rows:[{label,values}]}.
func (t *Table) MarshalJSON() ([]byte, error) {
	out := tableJSON{Title: t.Title, Columns: t.Columns, Rows: make([]rowJSON, 0, len(t.rows))}
	if out.Columns == nil {
		out.Columns = []string{}
	}
	for _, r := range t.rows {
		vs := r.values
		if vs == nil {
			vs = []string{}
		}
		out.Rows = append(out.Rows, rowJSON{Label: r.label, Values: vs})
	}
	return json.Marshal(out)
}

// UnmarshalJSON restores a table marshaled by MarshalJSON. It rejects a
// row whose value count differs from the column count: every table the
// experiments build has one value per column, and Value indexes a row
// by column, so a ragged row from a peer would panic a reader.
func (t *Table) UnmarshalJSON(b []byte) error {
	var in tableJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	for i, r := range in.Rows {
		if len(r.Values) != len(in.Columns) {
			return fmt.Errorf("report: table %q row %d (%q) has %d values for %d columns",
				in.Title, i, r.Label, len(r.Values), len(in.Columns))
		}
	}
	t.Title = in.Title
	t.Columns = in.Columns
	t.rows = t.rows[:0]
	for _, r := range in.Rows {
		t.rows = append(t.rows, row{label: r.Label, values: r.Values})
	}
	return nil
}
