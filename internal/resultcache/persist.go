package resultcache

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Persistent snapshot format: append-only segment files named
// cache-NNNNNN.seg inside the cache directory. A snapshot never rewrites
// an existing segment — it appends the next numbered file — and a load
// replays every segment in name order, later records overwriting earlier
// ones, so the directory is a write-once log of the cache's history that
// survives a crashed snapshot (partially written trailing records are
// detected by CRC and cut off, everything before them loads).
//
// Each segment is:
//
//	magic "CRCACHE1" (8 bytes)
//	record*:
//	  key   [32]byte    the canonical problem hash
//	  len   uint32 BE   payload length
//	  crc   uint32 BE   CRC-32 (IEEE) of key || payload
//	  data  [len]byte   opaque payload (the server stores a typed envelope)
const segMagic = "CRCACHE1"

// maxPayload bounds one record's payload; far above any real response,
// it rejects a corrupted length field outright.
const maxPayload = 64 << 20

// payloadChunk is the most ScanSegment allocates for a payload ahead of
// the bytes it has read: one allocation for any real response, and a
// length field claiming more than the segment holds costs no more than
// this plus the bytes that do follow.
const payloadChunk = 64 << 10

// ErrCorruptSegment marks a segment whose magic or a record's CRC failed.
var ErrCorruptSegment = errors.New("resultcache: corrupt snapshot segment")

// WriteSegment writes one snapshot segment with every entry enc can
// encode. enc turns a live value back into a payload; returning false
// skips the entry (e.g. an unexpectedly typed value).
func WriteSegment(w io.Writer, c *Cache, enc func(k Key, v any) ([]byte, bool)) (entries int, err error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(segMagic); err != nil {
		return 0, err
	}
	c.ForEach(func(k Key, v any, size int64) bool {
		payload, ok := enc(k, v)
		if !ok {
			return true
		}
		if err = writeRecord(bw, k, payload); err != nil {
			return false
		}
		entries++
		return true
	})
	if err != nil {
		return entries, err
	}
	return entries, bw.Flush()
}

func writeRecord(w *bufio.Writer, k Key, payload []byte) error {
	if _, err := w.Write(k[:]); err != nil {
		return err
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(k[:])
	crc.Write(payload)
	binary.BigEndian.PutUint32(hdr[4:], crc.Sum32())
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ScanSegment streams every record in one segment to fn, in file order,
// without needing a live cache — offline tooling (`routed cache diff`)
// reads snapshots through this. fn owns the payload slice. An error from
// fn aborts the scan and is returned as-is; a truncated or corrupt tail
// returns ErrCorruptSegment after every intact record before it was seen.
func ScanSegment(r io.Reader, fn func(k Key, payload []byte) error) error {
	br := bufio.NewReader(r)
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != segMagic {
		return fmt.Errorf("%w: bad magic", ErrCorruptSegment)
	}
	for {
		var k Key
		if _, err := io.ReadFull(br, k[:]); err != nil {
			if err == io.EOF {
				return nil // clean end
			}
			return fmt.Errorf("%w: truncated key", ErrCorruptSegment)
		}
		var hdr [8]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return fmt.Errorf("%w: truncated header", ErrCorruptSegment)
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		if n > maxPayload {
			return fmt.Errorf("%w: payload length %d", ErrCorruptSegment, n)
		}
		payload, err := readPayload(br, int(n))
		if err != nil {
			return fmt.Errorf("%w: truncated payload", ErrCorruptSegment)
		}
		crc := crc32.NewIEEE()
		crc.Write(k[:])
		crc.Write(payload)
		if crc.Sum32() != binary.BigEndian.Uint32(hdr[4:]) {
			return fmt.Errorf("%w: crc mismatch", ErrCorruptSegment)
		}
		if err := fn(k, payload); err != nil {
			return err
		}
	}
}

// readPayload reads an n-byte payload from r into a buffer that starts at
// payloadChunk bytes at most and doubles, capped at n, only once the bytes
// before it have arrived.
func readPayload(r io.Reader, n int) ([]byte, error) {
	p := make([]byte, min(n, payloadChunk))
	for got := 0; ; {
		if _, err := io.ReadFull(r, p[got:]); err != nil {
			return nil, err
		}
		if got = len(p); got == n {
			return p, nil
		}
		grown := make([]byte, min(n, 2*got))
		copy(grown, p)
		p = grown
	}
}

// ReadSegment replays one segment into the cache through dec, which turns
// a payload back into a live value and its accounted size. It returns the
// number of records loaded; a truncated or corrupt tail returns what
// loaded before it along with ErrCorruptSegment.
func ReadSegment(r io.Reader, c *Cache, dec func(k Key, payload []byte) (any, int64, error)) (entries int, err error) {
	err = ScanSegment(r, func(k Key, payload []byte) error {
		v, size, derr := dec(k, payload)
		if derr != nil {
			// A record the decoder rejects (e.g. an envelope from a newer
			// build) is skipped, not fatal: the rest of the segment is fine.
			return nil
		}
		c.Put(k, v, size)
		entries++
		return nil
	})
	return entries, err
}

// SnapshotDir appends the next numbered segment file to dir, creating the
// directory as needed, and returns its path. The file is written to a
// temporary name and renamed into place so a crashed snapshot never leaves
// a half-readable segment under a live name.
func SnapshotDir(dir string, c *Cache, enc func(k Key, v any) ([]byte, bool)) (path string, entries int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	segs, err := segmentFiles(dir)
	if err != nil {
		return "", 0, err
	}
	// Derive the next number from the maximum successfully parsed segment,
	// skipping stray names the glob also matched (e.g. cache-abc.seg) —
	// an unparsable name must never reset the counter and silently
	// overwrite an existing segment.
	next := 1
	for _, seg := range segs {
		if n, ok := segmentNumber(seg); ok && n >= next {
			next = n + 1
		}
	}
	path = filepath.Join(dir, fmt.Sprintf("cache-%06d.seg", next))
	tmp, err := os.CreateTemp(dir, ".cache-*.tmp")
	if err != nil {
		return "", 0, err
	}
	defer os.Remove(tmp.Name())
	entries, err = WriteSegment(tmp, c, enc)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", entries, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", entries, err
	}
	return path, entries, nil
}

// LoadDir replays every segment in dir (name order, later segments win)
// into the cache. A missing directory loads nothing. Corrupt segments
// contribute their readable prefix; the first corruption error is
// returned after all segments are processed, so a warm start is as warm
// as the disk allows.
func LoadDir(dir string, c *Cache, dec func(k Key, payload []byte) (any, int64, error)) (entries int, err error) {
	segs, serr := segmentFiles(dir)
	if serr != nil {
		if errors.Is(serr, os.ErrNotExist) {
			return 0, nil
		}
		return 0, serr
	}
	var firstErr error
	for _, seg := range segs {
		f, err := os.Open(seg)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		n, err := ReadSegment(f, c, dec)
		f.Close()
		entries += n
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", seg, err)
		}
	}
	return entries, firstErr
}

// ScanDir streams every record of every segment in dir through fn in
// replay order — the order LoadDir applies them, so a consumer that keeps
// the last record per key reconstructs exactly the state a load would
// build. A missing directory scans nothing. Corrupt segments contribute
// their readable prefix and the first corruption error is returned after
// all segments are processed; an error from fn aborts the scan at once.
func ScanDir(dir string, fn func(k Key, payload []byte) error) error {
	segs, serr := segmentFiles(dir)
	if serr != nil {
		if errors.Is(serr, os.ErrNotExist) {
			return nil
		}
		return serr
	}
	var firstErr error
	for _, seg := range segs {
		f, err := os.Open(seg)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		err = ScanSegment(f, fn)
		f.Close()
		if err != nil {
			if !errors.Is(err, ErrCorruptSegment) {
				return err // fn aborted
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", seg, err)
			}
		}
	}
	return firstErr
}

// segmentNumber parses a segment path's sequence number, reporting false
// for names the cache-*.seg glob matched but that are not numbered
// segments.
func segmentNumber(path string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(filepath.Base(path), "cache-%d.seg", &n); err != nil {
		return 0, false
	}
	return n, true
}

// segmentFiles lists dir's segments in replay order: numbered segments
// ascend numerically (correct even past the zero-padded %06d range, where
// lexical order would break), stray unnumbered matches replay first so a
// real segment always wins.
func segmentFiles(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "cache-*.seg"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		// Distinguish "empty dir" from "no dir" for LoadDir.
		if _, err := os.Stat(dir); err != nil {
			return nil, err
		}
	}
	sort.Slice(matches, func(i, j int) bool {
		ni, oki := segmentNumber(matches[i])
		nj, okj := segmentNumber(matches[j])
		switch {
		case oki && okj:
			return ni < nj
		case oki != okj:
			return okj // unnumbered strays sort first
		default:
			return matches[i] < matches[j]
		}
	})
	return matches, nil
}
