package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
)

// This file is the sweep layer's decomposition seam: a matrix-shaped
// experiment can run just a contiguous slice of its cells (a "shard"),
// export every memoized cell it computed as a content-keyed artifact,
// and later replay those artifacts instead of re-simulating: imported
// into a memo through MemoCodec, each replays as a memo hit. Three rules
// make the decomposition sound:
//
//  1. Every expensive cell already flows through exp/memo.go under a
//     deterministic config-fingerprint key, and is a pure function of
//     that key (the TestMemoDeterminism invariant). Serving a stored
//     value is therefore indistinguishable from recomputing it.
//  2. Artifact values are canonical JSON and are verified on both ends:
//     an artifact that does not survive a strict decode + re-marshal
//     round trip is dropped, and the cell is recomputed. Replay can
//     degrade to recomputation, never to different bytes.
//  3. Only experiments whose body is ONE top-level sweep with memoized
//     heavy work are shardable (see Shardable); everything after the
//     sweep is cheap rendering that the merge re-runs locally.

// CellRange selects a contiguous slice [Lo, Hi) of a sweep's cell
// indices. The empty range [0, 0) is the count probe: the sweep returns
// *RangeDone without running any cell.
type CellRange struct {
	Lo, Hi int
}

// RangeDone is the sentinel a sweep-driven experiment returns (as its
// error) when Options.CellRange was set: the requested cells ran (or,
// for the empty probe range, none did) and the experiment body must not
// render results, because slots outside the range are zero. Total is
// the sweep's full cell count.
type RangeDone struct {
	Total int
}

func (r *RangeDone) Error() string {
	return fmt.Sprintf("exp: cell range complete (sweep of %d cells)", r.Total)
}

// CellArtifact is one memoized sweep cell's canonical JSON value under
// its memo fingerprint key — the durable, transportable unit of
// completed work that shard execution and the job store exchange.
type CellArtifact struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// compactValue normalizes an artifact value's whitespace so values that
// crossed an indenting encoder (the HTTP layer pretty-prints) compare
// equal to locally marshaled ones. Invalid JSON is returned unchanged;
// the round-trip verification at decode time rejects it.
func compactValue(raw json.RawMessage) json.RawMessage {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return raw
	}
	return buf.Bytes()
}

// decodeCell decodes a cell artifact's canonical bytes into T,
// verifying exactness: the decode is strict (unknown fields rejected)
// and the decoded value must re-marshal to the same bytes. Any mismatch
// — schema drift, truncation, a value that lost information in transit
// — reads as ok=false, so the caller recomputes instead of diverging.
func decodeCell[T any](raw json.RawMessage) (T, bool) {
	var zero T
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var v T
	if err := dec.Decode(&v); err != nil {
		return zero, false
	}
	back, err := json.Marshal(v)
	if err != nil || !bytes.Equal(back, raw) {
		return zero, false
	}
	return v, true
}

// encodeCell marshals a cell value to its canonical artifact bytes,
// verifying the same round trip in the other direction: a value that
// cannot be reproduced from its own JSON (NaN/Inf, information outside
// exported fields) yields ok=false and no artifact — the cell simply
// stays non-resumable rather than resuming wrong.
func encodeCell[T any](v T) (json.RawMessage, bool) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, false
	}
	if _, ok := decodeCell[T](raw); !ok {
		return nil, false
	}
	return raw, true
}

// shardableIDs lists the registry experiments whose body is a single
// top-level sweep of memoized cells — the shape cell-range execution
// requires. Excluded by construction: ablations (four sequential
// sweeps), ramzzz/swapthr (unmemoized cells), fig2/tab1/hwcost (no
// sweep). Aliases of a shardable run are shardable.
var shardableIDs = map[string]bool{
	"fig1": true, "fig3": true,
	"fig6": true, "fig7": true, "tab2": true, // block-size sweep
	"fig8": true,
	"fig9": true, "fig10": true, "fig11": true, // energy matrix
	"fig12": true, "fig13": true,
	"tab3": true, "tail": true,
	"polgrid": true, // policy-pipeline ablation grid
}

// Shardable reports whether the experiment id supports cell-range
// execution (Options.CellRange / a job spec's cells field).
func Shardable(id string) bool { return shardableIDs[id] }

// ShardableExperiments lists every shardable id, sorted.
func ShardableExperiments() []string {
	ids := make([]string, 0, len(shardableIDs))
	for id := range shardableIDs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// CellCount reports how many sweep cells the experiment would run under
// o, without simulating any of them: it invokes the runner with the
// empty probe range, which returns before the first cell. Only the
// experiment's cheap pre-sweep setup executes.
func CellCount(id string, o Options) (int, error) {
	fn := Registry()[id]
	if fn == nil {
		return 0, fmt.Errorf("exp: unknown experiment %q", id)
	}
	o.CellRange = &CellRange{}
	o.CellSink = nil
	_, _, err := fn(o)
	var rd *RangeDone
	if errors.As(err, &rd) {
		return rd.Total, nil
	}
	if err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("exp: experiment %q ignored the probe range; not shardable", id)
}
