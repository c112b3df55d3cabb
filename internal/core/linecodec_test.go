package core

// The campaign journal's record line codec, and the incremental reader
// it loads through.

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"multiflip/internal/xrand"
)

// payloadWithCRCBelow returns a small JSON payload whose CRC-32 is
// below bound, so a header can spell it in fewer than 8 hex digits.
func payloadWithCRCBelow(t *testing.T, bound uint32) ([]byte, uint32) {
	t.Helper()
	for i := 0; i < 1<<20; i++ {
		p := []byte(fmt.Sprintf(`{"n":%d}`, i))
		if sum := crc32.ChecksumIEEE(p); sum < bound {
			return p, sum
		}
	}
	t.Fatalf("no payload with CRC-32 below %#x", bound)
	return nil, 0
}

// TestDecodeLineStrictHeader pins the frame header to exactly 8 hex
// digits. Each malformed header spells the payload's true checksum in a
// shape a lenient hex scanner reads as that value (a short digit run
// stopped by a non-digit, or after a skipped space), so only the header
// check can reject it.
func TestDecodeLineStrictHeader(t *testing.T) {
	p28, sum28 := payloadWithCRCBelow(t, 1<<28)
	p24, sum24 := payloadWithCRCBelow(t, 1<<24)
	line := func(header string, payload []byte) []byte {
		return append([]byte(header+" "), payload...)
	}
	for _, c := range []struct {
		name string
		line []byte
		ok   bool
	}{
		{"lowercase", line(fmt.Sprintf("%08x", sum28), p28), true},
		{"uppercase", line(fmt.Sprintf("%08X", sum28), p28), true},
		{"trailing non-digit", line(fmt.Sprintf("%07xg", sum28), p28), false},
		{"0x prefix", line(fmt.Sprintf("0x%06x", sum24), p24), false},
		{"leading space", line(fmt.Sprintf(" %07x", sum28), p28), false},
		{"inner space", line(fmt.Sprintf("%06x 0", sum24), p24), false},
	} {
		if len(c.line) < 9 || c.line[8] != ' ' {
			t.Fatalf("%s: header %q is not 8 bytes", c.name, c.line)
		}
		payload, ok := decodeLine(c.line)
		if ok != c.ok {
			t.Errorf("%s: decodeLine(%q) ok = %v, want %v", c.name, c.line, ok, c.ok)
		}
		if ok && !bytes.Equal(payload, c.line[9:]) {
			t.Errorf("%s: payload %q, want %q", c.name, payload, c.line[9:])
		}
	}
}

// TestAppendLineFrame checks the frame is byte-identical to the
// format every existing journal file was written in: the
// checksum zero-padded to 8 lowercase hex digits.
func TestAppendLineFrame(t *testing.T) {
	p28, _ := payloadWithCRCBelow(t, 1<<28)
	for _, p := range [][]byte{[]byte(`{"t":"meta"}`), p28, []byte("x")} {
		want := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(p), p)
		if got := appendLine([]byte("prefix"), p); string(got) != "prefix"+want {
			t.Errorf("appendLine(%q) = %q, want %q", p, got, want)
		}
		if got, ok := decodeLine([]byte(strings.TrimSuffix(want, "\n"))); !ok || !bytes.Equal(got, p) {
			t.Errorf("frame of %q does not round-trip", p)
		}
	}
}

// TestLogTailIncremental feeds a record file (larger than the read
// buffer) to one logTail in random growing prefixes, so reads stop at
// arbitrary bytes, and checks it applies exactly the records one whole
// read does: intact lines once each, in order, corrupt lines skipped,
// the torn final line pending.
func TestLogTailIncremental(t *testing.T) {
	var data []byte
	var want []string
	torn := false
	for i := 0; i < 200; i++ {
		p := []byte(fmt.Sprintf(`{"i":%d,"pad":%q}`, i, strings.Repeat("x", i*97%1500)))
		if i%17 == 5 {
			data = append(data, "corrupt line\n"...)
		}
		if i%17 == 9 {
			// A torn write followed by the next record: the two merge into
			// one corrupt line, so both are lost.
			data = append(data, appendLine(nil, p)[:20]...)
			torn = true
			continue
		}
		data = appendLine(data, p)
		if !torn {
			want = append(want, string(p))
		}
		torn = false
	}
	data = append(data, appendLine(nil, []byte(`{"torn":true}`))[:9]...)

	collect := func(got *[]string) func([]byte) {
		return func(p []byte) { *got = append(*got, string(p)) }
	}
	var whole []string
	var one logTail
	if err := one.read(bytes.NewReader(data), collect(&whole)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole, want) {
		t.Fatalf("one read applied %d records, want %d", len(whole), len(want))
	}
	rng := xrand.New(3)
	for trial := 0; trial < 20; trial++ {
		var got []string
		var tail logTail
		for k := 0; k < len(data); {
			k = min(len(data), k+1+rng.Intn(3000))
			if err := tail.read(bytes.NewReader(data[:k]), collect(&got)); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got, whole) {
			t.Fatalf("trial %d: incremental reads applied %d records, one read %d", trial, len(got), len(whole))
		}
		if tail.off != int64(len(data)) || len(tail.pending) != 9 {
			t.Fatalf("trial %d: tail at %d with %d pending bytes, want %d and 9", trial, tail.off, len(tail.pending), len(data))
		}
	}
}
