package api

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
)

// ContentTypeNDJSON selects the streaming variant of POST /v1/plan: the
// request body and the response body are both newline-delimited JSON.
//
// A streamed request is one PlanStreamHeader line followed by one NetSpec
// line per net; closing the body ends the plan. The response is one
// NetResult line per net in completion order — a net's result goes out the
// moment it is routed (or served from the result cache), while later nets
// are still being decoded or searched — terminated by exactly one
// PlanStreamTrailer line carrying the batch stats, or the error that ended
// the stream early. The results are byte-identical to the buffered
// endpoint's for the same nets, elapsed-time fields aside; only the
// framing differs.
//
// Streams exist for plans too large to buffer: neither side ever holds the
// whole net list or result list, so the per-request ceiling is MaxStreamNets
// rather than MaxNets, and each line is bounded by MaxLineBytes instead of
// the body by MaxRequestBytes.
const ContentTypeNDJSON = "application/x-ndjson"

// Streaming resource ceilings, the per-line counterparts of the buffered
// bounds.
const (
	// MaxLineBytes bounds one NDJSON line of a streamed request.
	MaxLineBytes = 1 << 20
	// MaxStreamNets bounds the nets of one streamed plan.
	MaxStreamNets = 1 << 20
)

// PlanStreamHeader is the first line of a streamed plan request: a
// PlanRequest without its net list.
type PlanStreamHeader struct {
	Grid GridSpec `json:"grid"`
	// Workers, TimeoutMS, and Cache mean exactly what they do on
	// PlanRequest; the timeout covers the whole stream, decode included.
	Workers   int           `json:"workers,omitempty"`
	TimeoutMS int           `json:"timeout_ms,omitempty"`
	Cache     *CacheOptions `json:"cache,omitempty"`
}

// Validate checks the header exactly as PlanRequest.Validate checks the
// matching fields.
func (h *PlanStreamHeader) Validate() error {
	if err := h.Grid.Validate(); err != nil {
		return err
	}
	if h.TimeoutMS < 0 {
		return fmt.Errorf("api: negative timeout_ms %d", h.TimeoutMS)
	}
	if h.Workers < 0 {
		return fmt.Errorf("api: negative workers %d", h.Workers)
	}
	if h.Cache != nil {
		if err := h.Cache.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// PlanStreamTrailer is the final line of a streamed plan response. Exactly
// one of Stats and Error is set: Stats when the stream completed, Error
// when it was cut short (malformed line, invalid net, stream-level fault).
// Every NetResult line already emitted remains valid either way.
type PlanStreamTrailer struct {
	Stats *PlanStats `json:"stats,omitempty"`
	Error string     `json:"error,omitempty"`
}

// PlanStreamDecoder reads a streamed plan request: one strict-decoded JSON
// value per line, with the same unknown-field and validation rules as the
// buffered decoder, applied before the next line is read. It never buffers
// more than one line.
type PlanStreamDecoder struct {
	sc     *bufio.Scanner
	header bool
	nets   int
}

// NewPlanStreamDecoder wraps r, which must yield NDJSON lines.
func NewPlanStreamDecoder(r io.Reader) *PlanStreamDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), MaxLineBytes)
	return &PlanStreamDecoder{sc: sc}
}

// Header decodes and validates the stream's first line. It must be called
// exactly once, before Next.
func (d *PlanStreamDecoder) Header() (*PlanStreamHeader, error) {
	if d.header {
		return nil, errors.New("api: stream header already read")
	}
	d.header = true
	line, err := d.line()
	if err != nil {
		if err == io.EOF {
			return nil, errors.New("api: empty stream: missing header line")
		}
		return nil, err
	}
	var h PlanStreamHeader
	if err := decodeStrictLine(line, &h); err != nil {
		return nil, fmt.Errorf("api: stream header: %w", err)
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return &h, nil
}

// Next decodes and validates the next NetSpec line against the grid,
// returning io.EOF when the stream ends cleanly. Name uniqueness is the
// caller's to enforce — the decoder holds no per-net state beyond a count.
func (d *PlanStreamDecoder) Next(g *GridSpec) (*NetSpec, error) {
	if !d.header {
		return nil, errors.New("api: stream header not read")
	}
	line, err := d.line()
	if err != nil {
		return nil, err
	}
	if d.nets++; d.nets > MaxStreamNets {
		return nil, fmt.Errorf("api: stream exceeds %d nets", MaxStreamNets)
	}
	var n NetSpec
	if err := decodeStrictLine(line, &n); err != nil {
		return nil, fmt.Errorf("api: stream net %d: %w", d.nets, err)
	}
	if err := n.Validate(g); err != nil {
		return nil, err
	}
	return &n, nil
}

// line returns the next non-blank line, or io.EOF.
func (d *PlanStreamDecoder) line() ([]byte, error) {
	for d.sc.Scan() {
		if line := bytes.TrimSpace(d.sc.Bytes()); len(line) > 0 {
			return line, nil
		}
	}
	if err := d.sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("api: stream line exceeds %d bytes", MaxLineBytes)
		}
		return nil, fmt.Errorf("api: read stream: %w", err)
	}
	return nil, io.EOF
}

// decodeStrictLine decodes exactly one JSON value from line with unknown
// fields and trailing data rejected — decodeStrict, minus the body cap that
// the per-line limit already enforces.
func decodeStrictLine[T Wire](line []byte, v *T) error {
	end, err := decodeStrictPrefix(line, v)
	if err != nil {
		return fmt.Errorf("malformed line: %w", err)
	}
	if !onlySpace(line[end:]) {
		return errors.New("trailing data after line value")
	}
	return nil
}

// ParseTrailer reports whether line, one line of a streamed plan
// response, is the stream's trailer, and returns it if so. The trailer is
// the line's first JSON value decoded strictly, with anything after it
// ignored, that sets Stats or Error. NetResult lines always carry a
// "name" member (net names are validated non-empty before anything is
// emitted), which the strict decode rejects as an unknown field, so the
// two line shapes cannot be confused.
func ParseTrailer(line []byte) (*PlanStreamTrailer, bool) {
	var t PlanStreamTrailer
	if _, err := decodeStrictPrefix(line, &t); err != nil {
		return nil, false
	}
	if t.Stats == nil && t.Error == "" {
		return nil, false
	}
	return &t, true
}
