package resultcache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// FuzzScanSegment checks the snapshot reader on two kinds of input.
//
// First, data as a segment: arbitrary bytes never panic, end the scan
// cleanly or with ErrCorruptSegment, and cost allocations in proportion
// to their length. A length field is read before its payload, so a few
// bytes claiming a huge payload must not buy a huge buffer (routed
// replays every segment in -cache-dir at boot).
//
// Second, data as records: each byte b draws one record whose payload
// is 2·b² bytes (up to 130 KB, so a payload can span several read
// chunks). WriteSegment writes them, the segment is cut at a fuzz-chosen
// offset, and the scan must deliver exactly the records wholly before the
// cut, in file order and byte for byte, and fail with ErrCorruptSegment
// unless the cut falls on a record boundary.
func FuzzScanSegment(f *testing.F) {
	// The segment that once cost a 64 MiB allocation: magic, a key and a
	// header claiming the largest accepted payload, then nothing.
	huge := append([]byte(segMagic), make([]byte, 32+8)...)
	binary.BigEndian.PutUint32(huge[40:], maxPayload)
	f.Add(huge, uint(48))
	f.Add([]byte(segMagic), uint(0))
	f.Add([]byte{1, 2, 3}, uint(50))
	// An 80,000-byte payload among three small ones (80,284 bytes in
	// all): read whole across chunks, and cut 10 bytes short of the end.
	f.Add([]byte{0, 7, 200, 3}, uint(80284))
	f.Add([]byte{0, 7, 200, 3}, uint(80274))
	f.Add([]byte{9, 9, 9, 9, 9, 9}, uint(300))
	f.Fuzz(func(t *testing.T, data []byte, cut uint) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := ScanSegment(bytes.NewReader(data), func(Key, []byte) error { return nil })
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("scan of arbitrary bytes: %v, want nil or ErrCorruptSegment", err)
		}
		// The bufio reader, one payload chunk, and a few times the input
		// for the payloads and per-record overhead.
		limit := uint64(16<<10 + payloadChunk + 8*len(data))
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
			t.Fatalf("scanning %d bytes allocated %d bytes, limit %d", len(data), alloc, limit)
		}

		c := New(Config{})
		payloads := map[Key][]byte{}
		for i, b := range data[:min(len(data), 16)] {
			p := make([]byte, 2*int(b)*int(b))
			for j := range p {
				p[j] = byte(i + j)
			}
			k := key(byte(i), b)
			c.Put(k, p, int64(len(p)))
			payloads[k] = p
		}
		var order []Key
		var buf bytes.Buffer
		if _, err := WriteSegment(&buf, c, func(k Key, v any) ([]byte, bool) {
			order = append(order, k)
			return v.([]byte), true
		}); err != nil {
			t.Fatal(err)
		}
		seg := buf.Bytes()
		at := int(cut % uint(len(seg)+1))
		// want: the records whose last byte lies before the cut; clean:
		// the cut falls after the magic, on a record boundary.
		var want []Key
		end, clean := len(segMagic), at == len(segMagic)
		for _, k := range order {
			if end += len(k) + 8 + len(payloads[k]); end > at {
				break
			}
			want = append(want, k)
			clean = clean || end == at
		}
		var got []Key
		err = ScanSegment(bytes.NewReader(seg[:at]), func(k Key, p []byte) error {
			if !bytes.Equal(p, payloads[k]) {
				t.Fatalf("record %x: payload of %d bytes differs from the %d written", k[:2], len(p), len(payloads[k]))
			}
			got = append(got, k)
			return nil
		})
		switch {
		case len(got) != len(want):
			t.Fatalf("cut at %d of %d: scan delivered %d records, %d lie wholly before it", at, len(seg), len(got), len(want))
		case clean && err != nil:
			t.Fatalf("cut at %d, a record boundary: %v", at, err)
		case !clean && !errors.Is(err, ErrCorruptSegment):
			t.Fatalf("cut at %d, inside a record: %v, want ErrCorruptSegment", at, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d: got key %x, want %x", i, got[i][:2], want[i][:2])
			}
		}
	})
}
