package exp

import (
	"encoding/json"
	"strings"

	"greendimm/internal/sweep"
)

// MemoCodec returns the sweep.Codec for the experiment layer's memo key
// families — the only keys whose values are serializable. Each family
// prefix (exp/memo.go) maps to one concrete Go type; encoding and
// decoding reuse the cell-artifact round-trip verification (cells.go),
// so an entry that would not reproduce its own bytes is dropped rather
// than replayed. Unknown prefixes are not exportable: a future key
// family is invisible to old peers and old job journals until its codec
// arm exists, which keeps a cross-version replay recompute-safe.
func MemoCodec() sweep.Codec { return memoCodec{} }

type memoCodec struct{}

// memoKeyFamilies maps each exportable key-family prefix (including the
// '|' separator) to its codec arm index. Kept in one place so
// Exportable, Encode and Decode cannot drift apart.
var memoKeyFamilies = []string{"timing|", "dynamics|", "vmday|", "tailsvc|"}

func (memoCodec) Exportable(key string) bool {
	for _, p := range memoKeyFamilies {
		if strings.HasPrefix(key, p) {
			return true
		}
	}
	return false
}

func (memoCodec) Encode(key string, val any) (json.RawMessage, bool) {
	switch {
	case strings.HasPrefix(key, "timing|"):
		return encodeTyped[TimingRun](val)
	case strings.HasPrefix(key, "dynamics|"):
		return encodeTyped[DynamicsRun](val)
	case strings.HasPrefix(key, "vmday|"):
		return encodeTyped[VMDayResult](val)
	case strings.HasPrefix(key, "tailsvc|"):
		return encodeTyped[tailCell](val)
	}
	return nil, false
}

func (memoCodec) Decode(key string, raw json.RawMessage) (any, bool) {
	switch {
	case strings.HasPrefix(key, "timing|"):
		return decodeTyped[TimingRun](raw)
	case strings.HasPrefix(key, "dynamics|"):
		return decodeTyped[DynamicsRun](raw)
	case strings.HasPrefix(key, "vmday|"):
		return decodeTyped[VMDayResult](raw)
	case strings.HasPrefix(key, "tailsvc|"):
		return decodeTyped[tailCell](raw)
	}
	return nil, false
}

// encodeTyped checks the entry's dynamic type against its key family's
// declared type, then renders it through the verified cell encoder. A
// type mismatch (a key family whose stored value is not what the family
// promises) declines the entry instead of exporting wrong bytes.
func encodeTyped[T any](val any) (json.RawMessage, bool) {
	v, ok := val.(T)
	if !ok {
		return nil, false
	}
	return encodeCell(v)
}

// decodeTyped revives serialized bytes as the family's concrete type,
// with decodeCell's strict-decode + re-marshal exactness check: compact
// the value first (it may have crossed the pretty-printing HTTP layer),
// and reject anything that does not reproduce its own bytes.
func decodeTyped[T any](raw json.RawMessage) (any, bool) {
	v, ok := decodeCell[T](compactValue(raw))
	if !ok {
		return nil, false
	}
	return v, true
}
