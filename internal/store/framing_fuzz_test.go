package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// FuzzCheckLine probes the "<crc8hex> <json>" line framing that the job
// journal and the memo log share through checkLine:
//
//  1. checkLine, and both journals' decoders on the body it accepts,
//     never panic, whatever the bytes;
//  2. an accepted line's body is everything after the ninth byte, and
//     its CRC-32 is the value the header names;
//  3. checkLine returns body for every encodeLine(body) with its newline
//     stripped.
//
// The decoder is more lenient than the encoder: it also accepts
// uppercase hex and a space-padded CRC, which encodeLine never writes.
// Property 2 therefore reads the header the lenient way (leading space,
// then a run of hex digits, either case) instead of assuming the
// canonical lowercase, zero-padded form.
func FuzzCheckLine(f *testing.F) {
	canonical := []byte(`{"seq":1,"op":"accept","hash":"h1"}`)
	f.Add([]byte(strings.TrimSuffix(encodeLine(canonical), "\n")))
	f.Add([]byte(fmt.Sprintf("%08X %s", crc32.ChecksumIEEE(canonical), canonical)))
	f.Add(spacePaddedLine())
	f.Add([]byte("     bad {}"))
	f.Add([]byte("00000000 "))
	f.Add([]byte("deadbeef {\"seq\":2}"))
	f.Add([]byte("0000000"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, line []byte) {
		if body, ok := checkLine(line); ok {
			(&Store{}).decode(body)
			(&MemoLog{}).decode(body)
			if !bytes.Equal(body, line[9:]) {
				t.Fatalf("accepted %q but returned body %q", line, body)
			}
			named, ok := headerCRC(string(line[:8]))
			if !ok {
				t.Fatalf("accepted %q whose header names no CRC", line)
			}
			if sum := crc32.ChecksumIEEE(body); sum != named {
				t.Fatalf("accepted %q: header names %08x, body has %08x", line, named, sum)
			}
		}

		// Every body the encoder frames is recovered by the decoder. A
		// journal body is a JSON value, never empty; an empty body frames
		// to a 9-byte line, which the decoder rejects as too short.
		if len(line) == 0 {
			return
		}
		framed := []byte(strings.TrimSuffix(encodeLine(line), "\n"))
		body, ok := checkLine(framed)
		if !ok || !bytes.Equal(body, line) {
			t.Fatalf("checkLine(encodeLine(%q)) = %q, %v", line, body, ok)
		}
	})
}

// spacePaddedLine frames the first small JSON body whose CRC has a
// leading zero nibble with a space-padded header ("%8x"), a form the
// decoder accepts but encodeLine never writes.
func spacePaddedLine() []byte {
	for i := 0; ; i++ {
		body := []byte(fmt.Sprintf(`{"n":%d}`, i))
		if sum := crc32.ChecksumIEEE(body); sum < 1<<28 {
			return []byte(fmt.Sprintf("%8x %s", sum, body))
		}
	}
}

// headerCRC reads the CRC a line header names: optional leading space,
// then the longest run of hex digits in either case.
func headerCRC(h string) (uint32, bool) {
	h = strings.TrimLeftFunc(h, unicode.IsSpace)
	end := strings.IndexFunc(h, func(r rune) bool {
		return !strings.ContainsRune("0123456789abcdefABCDEF", r)
	})
	if end >= 0 {
		h = h[:end]
	}
	v, err := strconv.ParseUint(h, 16, 32)
	return uint32(v), err == nil
}
