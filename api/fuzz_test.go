package api

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Seed corpus: the documented example requests plus structurally tricky
// near-misses. Shared by both fuzzers so either can mutate toward the
// other's shape.
var fuzzSeeds = []string{
	// The package-doc /v1/route example.
	`{"grid":{"w":64,"h":64,"pitch_mm":0.25,"obstacles":[{"x0":10,"y0":10,"x1":20,"y1":20}]},
	  "kind":"rbp","period_ps":500,"src":{"x":1,"y":1},"dst":{"x":60,"y":60},"timeout_ms":1000}`,
	// The package-doc /v1/plan example.
	`{"grid":{"w":64,"h":64,"pitch_mm":0.25},
	  "nets":[{"name":"cpu-sram","src":{"x":1,"y":1},"dst":{"x":60,"y":60},
	           "src_period_ps":500,"dst_period_ps":500,"wire_widths":[1,2]}],
	  "workers":2,"timeout_ms":5000}`,
	// GALS route.
	`{"grid":{"w":32,"h":4,"pitch_mm":0.5},"kind":"gals","src_period_ps":400,"dst_period_ps":650,
	  "src":{"x":0,"y":0},"dst":{"x":31,"y":3}}`,
	`{}`,
	`{"grid":{"w":2,"h":1,"pitch_mm":1},"kind":"fastpath","src":{"x":0,"y":0},"dst":{"x":1,"y":0}}`,
	`{"grid":{"w":1000000000,"h":1000000000,"pitch_mm":0.1}}`,
	`{"kind":"rbp","period_ps":1e999}`,
	`not json at all`,
	`{"grid":{"w":4,"h":4,"pitch_mm":0.5}} trailing`,
	`[1,2,3]`,
	`null`,
}

// fuzzDecode drives one decoder with arbitrary bytes next to its
// encoding/json reference: both must accept or both reject, accepted
// values must be deeply equal, and the strict decode stage underneath
// (before validation, which hides most differences) must agree the same
// way. Neither may panic, and the decoder must not leak goroutines.
func fuzzDecode[T Wire](f *testing.F, decode, ref func(io.Reader) (*T, error)) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	before := runtime.NumGoroutine()
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decode(bytes.NewReader(data))
		want, werr := ref(bytes.NewReader(data))
		sameOutcome(t, "decode", data, err, werr, got, want)
		var gv, wv T
		err = decodeStrict(bytes.NewReader(data), &gv)
		werr = refDecodeStrict(bytes.NewReader(data), &wv)
		sameOutcome(t, "decodeStrict", data, err, werr, gv, wv)
		if n := runtime.NumGoroutine(); n > before+20 {
			// Generous slack for the fuzzer's own workers: the decoder
			// itself must not spawn anything.
			time.Sleep(50 * time.Millisecond)
			if n = runtime.NumGoroutine(); n > before+20 {
				t.Fatalf("goroutine leak: %d -> %d", before, n)
			}
		}
	})
}

// FuzzDecodeRouteRequest fuzzes the /v1/route body decoder against the
// encoding/json decoder it replaced.
func FuzzDecodeRouteRequest(f *testing.F) {
	fuzzDecode(f, DecodeRouteRequest, func(r io.Reader) (*RouteRequest, error) {
		var req RouteRequest
		if err := refDecodeStrict(r, &req); err != nil {
			return nil, err
		}
		if err := req.Validate(); err != nil {
			return nil, err
		}
		return &req, nil
	})
}

// FuzzDecodePlanRequest fuzzes the /v1/plan body decoder against the
// encoding/json decoder it replaced.
func FuzzDecodePlanRequest(f *testing.F) {
	fuzzDecode(f, DecodePlanRequest, func(r io.Reader) (*PlanRequest, error) {
		var req PlanRequest
		if err := refDecodeStrict(r, &req); err != nil {
			return nil, err
		}
		if err := req.Validate(); err != nil {
			return nil, err
		}
		return &req, nil
	})
}

// planStreamSeeds are streamed plan requests: the header-only, valid,
// blank-line, duplicate-key and broken shapes.
var planStreamSeeds = []string{
	"{\"grid\":{\"w\":16,\"h\":16,\"pitch_mm\":0.25}}\n" +
		"{\"name\":\"a\",\"src\":{\"x\":1,\"y\":1},\"dst\":{\"x\":14,\"y\":14},\"src_period_ps\":500,\"dst_period_ps\":500}\n" +
		"\n  \r\n" +
		"{\"name\":\"b\",\"src\":{\"x\":0,\"y\":3},\"dst\":{\"x\":9,\"y\":2},\"src_period_ps\":400,\"dst_period_ps\":650,\"wire_widths\":[1,2]}\n",
	"{\"grid\":{\"w\":8,\"h\":8,\"pitch_mm\":0.5},\"workers\":2,\"timeout_ms\":100,\"cache\":{\"mode\":\"bypass\"}}\r\n" +
		"{\"name\":\"n\",\"src\":{\"x\":0,\"y\":0},\"src\":{\"x\":1},\"dst\":{\"x\":7,\"y\":7},\"src_period_ps\":300,\"dst_period_ps\":300}",
	"{\"grid\":{\"w\":8,\"h\":8,\"pitch_mm\":0.5}}\n{\"name\":\"x\",\"bogus\":1}\n",
	"{\"grid\":{\"w\":8,\"h\":8,\"pitch_mm\":0.5}} {\"again\":1}\n",
	"{\"grid\":{\"w\":1,\"h\":1,\"pitch_mm\":0.5}}\n",
	"\n\n",
	"",
	"null\nnull\n",
}

// FuzzPlanStreamDecoder feeds arbitrary bytes through the NDJSON request
// stream decoder (Header, then Next until EOF or an error) next to a
// line-for-line encoding/json reference: the same header, the same nets,
// and the same end at the same line.
func FuzzPlanStreamDecoder(f *testing.F) {
	for _, s := range planStreamSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPlanStream(t, data)
	})
}

// TestDecodeAcceptedRoundTrips: anything the decoders accept must survive
// an encode/decode round trip (the service echoes requests nowhere, but
// the property pins the wire format as self-consistent).
func TestDecodeAcceptedRoundTrips(t *testing.T) {
	for _, s := range fuzzSeeds {
		if req, err := DecodeRouteRequest(strings.NewReader(s)); err == nil {
			if err := req.Validate(); err != nil {
				t.Errorf("accepted route request fails re-validation: %v", err)
			}
		}
		if req, err := DecodePlanRequest(strings.NewReader(s)); err == nil {
			if err := req.Validate(); err != nil {
				t.Errorf("accepted plan request fails re-validation: %v", err)
			}
		}
	}
}

// FuzzWireDecoders runs every decode mode of the codec (strict body,
// strict line, Unmarshal, DecodeJSON) for every wire type, and the
// trailer test, on arbitrary bytes next to its encoding/json counterpart:
// the responses the client and the snapshot reader decode included.
func FuzzWireDecoders(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	for _, s := range []string{
		`{"latency_ps":1500,"source_delay_ps":212.5,"registers":2,"buffers":1,"path":[{"x":1,"y":1},{"x":1,"y":2}],` +
			`"gates":["","reg"],"stats":{"configs":9,"pushed":12,"pruned":1,"waves":2,"max_q_size":4,"elapsed_ns":77},` +
			`"problem_hash":"00ff","cached":true}`,
		`{"nets":[{"name":"a","latency_ps":1,"path":[{"x":0,"y":0}]},{"name":"b","error":"no path"}],` +
			`"stats":{"workers":2,"nets_routed":1,"nets_failed":1,"total_configs":3,"total_pushed":4,"total_pruned":0,` +
			`"total_waves":1,"max_q_size":2,"elapsed_ns":5}}`,
		`{"error":"api: malformed request: unknown field \"x\""}`,
		`{"stats":{"workers":1},"error":""}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAllDecoders(t, data)
	})
}

// FuzzHitSplice holds the hit splices (hit.go) to encoding/json: for
// random RouteResponse, NetResult and PlanStats values, a fuzzed net name
// and a fuzzed gate label, a stored encoding (nameless, unflagged) spliced
// by AppendCached or AppendNamed must equal json.Marshal of the named,
// flagged value, AppendPlanResponse over the spliced nets must equal
// json.Marshal of the PlanResponse, and MarshalExact must return its
// prefix and AppendJSON's bytes in an exact-length slice.
func FuzzHitSplice(f *testing.F) {
	f.Add(int64(1), "n<&\u2028", "reg")
	f.Add(int64(2), "\xff\xfeok", "<script>&amp;")
	f.Add(int64(3), "", "")
	f.Add(int64(4), "a\u2029b\"\\c", "\x00\x1f\x7f")
	f.Add(int64(5), "cpu-sram", "buf3")
	f.Fuzz(func(t *testing.T, seed int64, name, label string) {
		rng := rand.New(rand.NewSource(seed))
		splice := func(what string, got []byte, want any) {
			t.Helper()
			w, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, w) {
				t.Fatalf("%s:\nspliced       %s\nencoding/json %s", what, got, w)
			}
		}

		var rr RouteResponse
		randFill(rng, reflect.ValueOf(&rr).Elem(), false)
		rr.Gates = append(rr.Gates, label)
		rr.Cached = false
		stored, err := MarshalExact([]byte{'R'}, &rr)
		if err != nil {
			t.Fatal(err)
		}
		if enc, _ := AppendJSON([]byte{'R'}, &rr); cap(stored) != len(stored) || !bytes.Equal(stored, enc) {
			t.Fatalf("MarshalExact = %q (cap %d), want %q", stored, cap(stored), enc)
		}
		rr.Cached = true
		splice("AppendCached(RouteResponse)", AppendCached(nil, stored[1:]), &rr)

		nets := make([]NetResult, rng.Intn(4))
		encs := make([][]byte, len(nets))
		for i := range nets {
			n := &nets[i]
			randFill(rng, reflect.ValueOf(n).Elem(), false)
			served := n.Name
			if i == 0 {
				served = name
			}
			n.Name, n.Cached = "", false
			stored, err := AppendJSON([]byte("prefix"), n)
			if err != nil {
				t.Fatal(err)
			}
			n.Name, n.Cached = served, rng.Intn(2) == 0
			encs[i] = AppendNamed([]byte("prefix"), stored[len("prefix"):], served, n.Cached)
			if !bytes.HasPrefix(encs[i], []byte("prefix")) {
				t.Fatalf("AppendNamed dropped its prefix: %q", encs[i])
			}
			encs[i] = encs[i][len("prefix"):]
			splice("AppendNamed", encs[i], n)
		}
		pr := PlanResponse{Nets: nets}
		randFill(rng, reflect.ValueOf(&pr.Stats).Elem(), false)
		if rng.Intn(4) == 0 {
			pr.Nets, encs = nil, nil
		}
		splice("AppendPlanResponse", AppendPlanResponse(nil, encs, &pr.Stats), &pr)
	})
}
