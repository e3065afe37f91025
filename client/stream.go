package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"clockroute/api"
	"clockroute/internal/telemetry"
)

// NetSource supplies the nets of a streamed plan by pushing each one
// through emit, stopping early if emit returns an error (which it must
// propagate). A source must be replayable from the start: PlanStream calls
// it once per attempt, so a refused stream (429/503 before any result) can
// be retried whole. Sources that cannot replay should disable retries with
// WithMaxAttempts(1).
type NetSource func(emit func(api.NetSpec) error) error

// StreamError reports a streamed plan that failed after the server had
// committed to it: the error trailer, a truncated or unreadable stream, or
// an upload fault mid-exchange. Delivered counts the results fn consumed
// before the fault — every one of them is valid — so callers can tell a
// clean short stream (no error at all) from a truncated one, and resume
// logic knows exactly how much of the plan already answered. Errors from
// fn itself are returned as-is, never wrapped: aborting one's own stream
// is not a transport fault.
type StreamError struct {
	// Delivered is the number of results handed to fn before the fault.
	Delivered int
	// Err is the underlying fault: the server's trailer message, a decode
	// error, or the transport error that cut the stream.
	Err error
}

// Error implements error.
func (e *StreamError) Error() string {
	return fmt.Sprintf("client: stream failed after %d results: %v", e.Delivered, e.Err)
}

// Unwrap exposes the underlying fault to errors.Is/As.
func (e *StreamError) Unwrap() error { return e.Err }

// NetsFromSlice adapts a fixed net list into a (trivially replayable)
// NetSource.
func NetsFromSlice(nets []api.NetSpec) NetSource {
	return func(emit func(api.NetSpec) error) error {
		for _, n := range nets {
			if err := emit(n); err != nil {
				return err
			}
		}
		return nil
	}
}

// PlanStream routes a batch via the NDJSON transport of POST /v1/plan:
// nets are uploaded as they are produced by the source, and fn receives
// each result the moment the server finishes that net — in completion
// order, not submission order — while later nets are still uploading.
// Neither side buffers the whole plan, so a stream may carry up to
// api.MaxStreamNets nets against the buffered endpoint's api.MaxNets.
//
// fn is called sequentially; returning an error aborts the stream (the
// server sees the disconnect and cancels outstanding nets) and PlanStream
// returns that error. On success PlanStream returns the batch stats from
// the stream's trailer, covering the routed nets (cache hits included in
// NetsRouted, as in the buffered response).
//
// Retries mirror Plan's — same backoff, same Retry-After floor, same
// trace identity across attempts — but only before the stream opens: a
// refusal (429 shed, 503 drain) arrives as a plain HTTP status and the
// whole exchange is replayed, while after the first 200 byte the server
// has committed results and a mid-stream failure is returned as a
// *StreamError carrying the count of results delivered before the fault.
// Only errors returned by fn itself come back unwrapped.
func (c *Client) PlanStream(ctx context.Context, hdr *api.PlanStreamHeader, nets NetSource, fn func(api.NetResult) error) (*api.PlanStats, error) {
	var stats *api.PlanStats
	err := c.retry(ctx, func(tc telemetry.TraceContext, rid string) (opened bool, err error) {
		stats, opened, err = c.planStreamOnce(ctx, hdr, nets, fn, tc, rid)
		return opened, err
	})
	if err != nil {
		return nil, err
	}
	return stats, nil
}

// planStreamOnce performs a single streamed exchange. opened reports
// whether the server committed to the stream (status 200 seen): an error
// after that must not be retried.
func (c *Client) planStreamOnce(ctx context.Context, hdr *api.PlanStreamHeader, nets NetSource, fn func(api.NetResult) error, tc telemetry.TraceContext, rid string) (stats *api.PlanStats, opened bool, err error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+"/v1/plan", pr)
	if err != nil {
		return nil, false, fmt.Errorf("client: build request: %w", err)
	}
	req.Header.Set("Content-Type", api.ContentTypeNDJSON)
	req.Header.Set("traceparent", tc.TraceParent())
	req.Header.Set("X-Request-Id", rid)

	// The upload runs beside the download: the server's bounded decode
	// window pushes back through the pipe, so a plan is produced no faster
	// than it routes. A refused or finished exchange unblocks the writer
	// because the transport closes the request body (the pipe's read end).
	writeErr := make(chan error, 1)
	go func() {
		err := func() error {
			if err := api.EncodeJSON(pw, hdr); err != nil {
				return err
			}
			return nets(func(n api.NetSpec) error { return api.EncodeJSON(pw, &n) })
		}()
		pw.CloseWithError(err) // nil closes clean: the server sees EOF
		writeErr <- err
	}()

	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, false, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false, statusError(resp)
	}

	// From here on the stream is committed: any transport-level fault is
	// wrapped in a *StreamError carrying how many results already landed.
	delivered := 0
	streamFault := func(err error) error { return &StreamError{Delivered: delivered, Err: err} }

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), api.MaxLineBytes)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		nr, t, err := readResultLine(line)
		if err != nil {
			return nil, true, streamFault(err)
		}
		if t != nil {
			if t.Error != "" {
				// Surface a local upload failure over the server's view of
				// it (typically "malformed line: unexpected EOF").
				select {
				case werr := <-writeErr:
					if werr != nil {
						return nil, true, streamFault(fmt.Errorf("stream upload: %w", werr))
					}
				default:
				}
				return nil, true, streamFault(fmt.Errorf("stream failed: %s", t.Error))
			}
			return t.Stats, true, nil
		}
		if err := fn(nr); err != nil {
			return nil, true, err // the caller's own abort, not a stream fault
		}
		delivered++
	}
	if err := sc.Err(); err != nil {
		return nil, true, streamFault(fmt.Errorf("read stream: %w", err))
	}
	return nil, true, streamFault(errors.New("stream ended without a trailer"))
}

// readResultLine reads one non-blank line of a streamed plan response:
// the trailer (see api.ParseTrailer) when it is one, else a NetResult.
func readResultLine(line []byte) (api.NetResult, *api.PlanStreamTrailer, error) {
	if t, ok := api.ParseTrailer(line); ok {
		return api.NetResult{}, t, nil
	}
	var nr api.NetResult
	if err := api.Unmarshal(line, &nr); err != nil {
		return api.NetResult{}, nil, fmt.Errorf("decode result line: %w", err)
	}
	return nr, nil, nil
}
