package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// encoding/json is the codec's oracle. The reference decoders below are
// the ones this package and the client used before the codec; every test
// here and in fuzz_test.go holds the codec to their accept/reject
// outcome and their values, and holds its encoder to json.Marshal's bytes.

// refDecodeStrict is the strict body decoder the codec replaced.
func refDecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, MaxRequestBytes+1))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("api: malformed request: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return errors.New("api: trailing data after request body")
	}
	if dec.InputOffset() > MaxRequestBytes {
		return fmt.Errorf("api: request body exceeds %d bytes", MaxRequestBytes)
	}
	return nil
}

// refDecodeStrictLine is the strict NDJSON line decoder the codec replaced.
func refDecodeStrictLine(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("malformed line: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return errors.New("trailing data after line value")
	}
	return nil
}

// refParseTrailer is the client's trailer test the codec replaced.
func refParseTrailer(line []byte) (*PlanStreamTrailer, bool) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var t PlanStreamTrailer
	if err := dec.Decode(&t); err != nil {
		return nil, false
	}
	if t.Stats == nil && t.Error == "" {
		return nil, false
	}
	return &t, true
}

// sameOutcome fails t unless both decodes rejected, or both accepted with
// deeply equal values.
func sameOutcome(t *testing.T, what string, data []byte, gotErr, wantErr error, got, want any) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s(%q): codec err = %v, encoding/json err = %v", what, data, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s(%q):\ncodec         %#v\nencoding/json %#v", what, data, got, want)
	}
}

// checkDecoders runs every decode mode of the codec on data as a T and
// compares each with its encoding/json counterpart.
func checkDecoders[T Wire](t *testing.T, data []byte) {
	t.Helper()
	name := reflect.TypeOf((*T)(nil)).Elem().Name()
	{
		var got, want T
		gerr := decodeStrict(bytes.NewReader(data), &got)
		werr := refDecodeStrict(bytes.NewReader(data), &want)
		sameOutcome(t, "decodeStrict "+name, data, gerr, werr, got, want)
	}
	{
		var got, want T
		gerr := decodeStrictLine(data, &got)
		werr := refDecodeStrictLine(data, &want)
		sameOutcome(t, "decodeStrictLine "+name, data, gerr, werr, got, want)
	}
	{
		var got, want T
		gerr := Unmarshal(data, &got)
		werr := json.Unmarshal(data, &want)
		sameOutcome(t, "Unmarshal "+name, data, gerr, werr, got, want)
	}
	{
		var got, want T
		gerr := DecodeJSON(bytes.NewReader(data), &got)
		werr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
		sameOutcome(t, "DecodeJSON "+name, data, gerr, werr, got, want)
	}
}

// checkAllDecoders runs checkDecoders for every wire type, plus the
// trailer test.
func checkAllDecoders(t *testing.T, data []byte) {
	t.Helper()
	checkDecoders[RouteRequest](t, data)
	checkDecoders[PlanRequest](t, data)
	checkDecoders[PlanStreamHeader](t, data)
	checkDecoders[NetSpec](t, data)
	checkDecoders[RouteResponse](t, data)
	checkDecoders[PlanResponse](t, data)
	checkDecoders[NetResult](t, data)
	checkDecoders[PlanStreamTrailer](t, data)
	checkDecoders[ErrorResponse](t, data)
	got, gok := ParseTrailer(data)
	want, wok := refParseTrailer(data)
	if gok != wok || !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseTrailer(%q) = %#v, %v; encoding/json %#v, %v", data, got, gok, want, wok)
	}
}

// Edge values the random generator draws from: the float format's
// cut-offs and their neighbours, negative zero, denormals and extremes;
// strings with every escape class encoding/json distinguishes.
var (
	edgeFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.25, 500, 1e-6, -1e-6, 1e21, -1e21, 1e20, 1e-7, 1.5e-7,
		math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), math.Nextafter(1e21, 0), math.Nextafter(1e21, 2e21),
		5e-324, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 123456789.125, 1e100, 1e-100,
		0.1, 1.0 / 3, 2.5e-8, 9.999999e20, 100000000000000000000,
	}
	edgeStrings = []string{
		"", "rbp", "gals", "reg", "buf0", "buf7", "a<b>&c", "quote\"back\\slash/",
		"\b\f\n\r\t", "\x00\x01\x1f\x7f", "\xe2\x80\xa8", "\xe2\x80\xa9", "x\xe2\x80\xa8y\xe2\x80\xa9z",
		"\xff", "ok\xfe\xffok", "\xed\xa0\x80", "\xe2\x80", "\xc3\xa9t\xc3\xa9", "\xe6\x97\xa5\xe6\x9c\xac",
		"\xf0\x9f\x98\x80", "\xef\xbf\xbd", "<script>", "&amp;",
	}
)

// randFill sets every field reachable from v to a random value, slices
// and pointers nil, empty or populated, so a field the codec misses shows
// up as a byte or value difference.
func randFill(rng *rand.Rand, v reflect.Value, special bool) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			randFill(rng, v.Field(i), special)
		}
	case reflect.Pointer:
		if rng.Intn(3) == 0 {
			v.SetZero()
			return
		}
		p := reflect.New(v.Type().Elem())
		randFill(rng, p.Elem(), special)
		v.Set(p)
	case reflect.Slice:
		switch rng.Intn(4) {
		case 0:
			v.SetZero()
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, rng.Intn(2)))
		default:
			n := 1 + rng.Intn(5)
			s := reflect.MakeSlice(v.Type(), n, n)
			for i := 0; i < n; i++ {
				randFill(rng, s.Index(i), special)
			}
			v.Set(s)
		}
	case reflect.Int, reflect.Int64:
		switch rng.Intn(4) {
		case 0:
			v.SetInt(0)
		case 1:
			v.SetInt(rng.Int63() - rng.Int63())
		case 2:
			v.SetInt([]int64{math.MaxInt64, math.MinInt64, -1, 1}[rng.Intn(4)])
		default:
			v.SetInt(int64(rng.Intn(200) - 20))
		}
	case reflect.Float64:
		switch rng.Intn(4) {
		case 0, 1:
			v.SetFloat(edgeFloats[rng.Intn(len(edgeFloats))])
		case 2:
			v.SetFloat(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)))
		default:
			v.SetFloat(math.Float64frombits(rng.Uint64()))
		}
		if f := v.Float(); !special && (math.IsNaN(f) || math.IsInf(f, 0)) {
			v.SetFloat(1)
		} else if special && rng.Intn(8) == 0 {
			v.SetFloat([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)])
		}
	case reflect.String:
		var sb strings.Builder
		for n := rng.Intn(3); n >= 0; n-- {
			sb.WriteString(edgeStrings[rng.Intn(len(edgeStrings))])
		}
		v.SetString(sb.String())
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	default:
		panic("randFill: unhandled kind " + v.Kind().String())
	}
}

// checkEncode byte-compares AppendJSON and EncodeJSON with encoding/json
// on v, and checks each decoder reads the encoding back as encoding/json
// does.
func checkEncode[T Wire](t *testing.T, v *T) {
	t.Helper()
	want, werr := json.Marshal(v)
	got, gerr := AppendJSON([]byte("prefix"), v)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("AppendJSON(%#v): err = %v, json.Marshal err = %v", v, gerr, werr)
	}
	if werr != nil {
		return
	}
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("AppendJSON(%#v):\ncodec         %s\nencoding/json %s", v, got[len("prefix"):], want)
	}
	var gbuf, wbuf bytes.Buffer
	if err := EncodeJSON(&gbuf, v); err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(&wbuf).Encode(v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gbuf.Bytes(), wbuf.Bytes()) {
		t.Fatalf("EncodeJSON = %q, json.Encoder %q", gbuf.Bytes(), wbuf.Bytes())
	}
	checkDecoders[T](t, want)
}

func randomWire[T Wire](t *testing.T, rng *rand.Rand, n int, special bool) {
	for i := 0; i < n; i++ {
		var v T
		randFill(rng, reflect.ValueOf(&v).Elem(), special)
		checkEncode(t, &v)
	}
}

// TestCodecMatchesEncodingJSON: random values of every wire type, with
// every field filled, encode to json.Marshal's bytes and decode back to
// what encoding/json decodes; NaN and infinities fail both encoders.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, special := range []bool{false, true} {
		randomWire[RouteRequest](t, rng, 300, special)
		randomWire[PlanRequest](t, rng, 300, special)
		randomWire[PlanStreamHeader](t, rng, 300, special)
		randomWire[NetSpec](t, rng, 300, special)
		randomWire[RouteResponse](t, rng, 300, special)
		randomWire[PlanResponse](t, rng, 300, special)
		randomWire[NetResult](t, rng, 300, special)
		randomWire[PlanStreamTrailer](t, rng, 300, special)
		randomWire[ErrorResponse](t, rng, 300, special)
	}
}

// TestCodecFloatCutoffs pins the float format at encoding/json's 'e'
// cut-offs, negative zero with and without omitempty, and the unpadded
// negative exponent.
func TestCodecFloatCutoffs(t *testing.T) {
	for _, f := range edgeFloats {
		for _, g := range []float64{f, -f} {
			checkEncode(t, &RouteResponse{LatencyPS: g, SlackPS: g})
			checkEncode(t, &NetSpec{SrcPeriodPS: g, WireWidths: []float64{g}})
		}
	}
	b, err := AppendJSON(nil, &RouteRequest{PeriodPS: math.Copysign(0, -1)})
	if err != nil || bytes.Contains(b, []byte("period_ps")) {
		t.Errorf("-0 under omitempty encoded as %s (%v)", b, err)
	}
	b, _ = AppendJSON(nil, &NetSpec{SrcPeriodPS: 1e-7})
	if !bytes.Contains(b, []byte(`"src_period_ps":1e-7`)) {
		t.Errorf("1e-7 encoded as %s", b)
	}
}

// TestCodecStrings pins string escaping (HTML characters, the line
// separators, control bytes, invalid UTF-8) in both directions.
func TestCodecStrings(t *testing.T) {
	for _, s := range edgeStrings {
		checkEncode(t, &ErrorResponse{Error: s})
		checkEncode(t, &NetResult{Name: s, Gates: []string{s, ""}})
	}
}

// TestCodecDecodeEdgeCases feeds every decoder inputs where encoding/json's
// rules are easy to get wrong.
func TestCodecDecodeEdgeCases(t *testing.T) {
	const esc = `\u` // a JSON \u escape, spelled out
	deep := strings.Repeat("[", 10000) + strings.Repeat("]", 10000)
	tooDeep := strings.Repeat("[", 10001) + strings.Repeat("]", 10001)
	cases := []string{
		// Key folding: exact, ASCII case, and the two non-ASCII runes that
		// fold to ASCII letters (U+017F long s, U+212A Kelvin sign).
		`{"Error":"e"}`, `{"ERROR":"e","error":"f"}`, `{"kind":"rbp","KIND":"gals"}`,
		"{\"\xc5\xbftats\":{\"workers\":2}}", "{\"\xe2\x84\xaaind\":\"rbp\"}", "{\"max_q_\xc5\xbfize\":3}",
		"{\"" + esc + "0065rror\":\"escaped key\"}", `{"error":1}`,
		// Repeated keys: last wins, structs and slice elements merge.
		`{"stats":{"workers":1,"nets_routed":5},"stats":{"workers":2}}`,
		`{"path":[{"x":1,"y":7},{"x":2}],"path":[{"x":9}],"path":[{},{}]}`,
		`{"path":[{"x":1,"y":7}],"path":null,"path":[{"x":2}]}`,
		`{"nets":[{"name":"a","wire_widths":[1,2,3]}],"nets":[{"wire_widths":[null]}]}`,
		`{"gates":["reg","buf0"],"gates":[null,"x"],"gates":[]}`,
		`{"cache":{"mode":"bypass"},"cache":{}}`, `{"cache":{"mode":"bypass"},"cache":null,"cache":{}}`,
		`{"stats":{"workers":3},"stats":null}`, `{"stats":null,"error":"x"}`,
		// null: no-op on scalars and structs, nil on slices and pointers.
		`null`, ` null `, `{"grid":null,"kind":null,"src":null,"period_ps":null}`,
		`{"path":null,"gates":null,"stats":null,"cached":null}`, `{"nets":null}`, `{"nets":[null]}`,
		`{"path":[]}`, `{"gates":[]}`, `{"nets":[]}`,
		// Numbers.
		`{"registers":1.0}`, `{"registers":1e2}`, `{"registers":-0}`, `{"registers":9223372036854775807}`,
		`{"registers":9223372036854775808}`, `{"registers":-9223372036854775808}`, `{"registers":123456789012345678}`,
		`{"latency_ps":1e999}`, `{"latency_ps":-1e-999}`, `{"latency_ps":-0}`, `{"latency_ps":01}`,
		`{"latency_ps":1.}`, `{"latency_ps":.5}`, `{"latency_ps":-}`, `{"latency_ps":1e}`, `{"latency_ps":1E+2}`,
		`{"latency_ps":"1"}`, `{"latency_ps":true}`, `{"registers":[]}`, `{"registers":{}}`,
		`{"elapsed_ns":-9223372036854775808}`, `{"elapsed_ns":1e3}`,
		// Strings: escapes, surrogates, invalid UTF-8, control bytes.
		"{\"error\":\"" + esc + "d83d" + esc + "de00\"}", `{"error":"\ud83d"}`, `{"error":"\ude00\ud83d"}`, `{"error":"\ud83dx"}`,
		`{"error":"\ud83dA"}`, "{\"error\":\"" + esc + "d83d" + esc + "d83d" + esc + "de00\"}", `{"error":"\uDEAD"}`, "{\"error\":\"" + esc + "00e9" + esc + "00E9\\/\\b\"}",
		`{"error":"\x"}`, `{"error":"\u12"}`, `{"error":"\u12G4"}`, `{"error":"a` + "\x01" + `"}`,
		"{\"error\":\"\xff\xfe\"}", "{\"error\":\"\xed\xa0\x80\"}", "{\"error\":\"\xe2\x80\"}", `{"error":"\'"}`,
		`{"error":"unterminated`, `{"error":"\`, `{"error":5}`, `{"error":null}`,
		// Unknown fields: rejected strictly, skipped (syntax checked)
		// otherwise.
		`{"bogus":1,"error":"x"}`, `{"bogus":{"a":[1,{"b":null}]},"error":"x"}`, `{"bogus":[1,2,}`,
		`{"bogus":tru}`, `{"bogus":"x\q"}`, `{"error":"x","bogus":` + deep + `}`, `{"bogus":` + tooDeep + `}`,
		`{"name":"n","stats":{"workers":1}}`,
		// Structure and trailing data.
		``, ` `, `{`, `}`, `{}`, `{} `, "{}\n\t", `{}x`, `{} {}`, `{},`, `[]`, `[1]`, `"str"`, `5`, `true`,
		`{"error":"x",}`, `{,}`, `{"error" "x"}`, `{"error":}`, `{"error":"x" "y":1}`, `nul`, `nullx`,
		`{"path":[{"x":1},]}`, `{"path":[,]}`, `{"path":[{"x":1} {"x":2}]}`, `{"path":{}}`, `{"path":"x"}`,
		`{"cache":5}`, `{"cache":[]}`, `{"grid":{"w":5,"obstacles":[{"x0":1,"x0":2}]}}`,
	}
	for _, c := range cases {
		checkAllDecoders(t, []byte(c))
	}
}

// TestCodecMutations decodes thousands of single-edit mutations of valid
// encodings with every decoder next to encoding/json: the unit-test share
// of what the fuzzers explore.
func TestCodecMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var seeds [][]byte
	add := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	for i := 0; i < 20; i++ {
		var rr RouteRequest
		randFill(rng, reflect.ValueOf(&rr).Elem(), false)
		add(&rr)
		var nr NetResult
		randFill(rng, reflect.ValueOf(&nr).Elem(), false)
		add(&nr)
		var tr PlanStreamTrailer
		randFill(rng, reflect.ValueOf(&tr).Elem(), false)
		add(&tr)
	}
	pieces := []string{"null", " ", ",", "}", "]", `"`, `\`, "{", "[", "0", "-", "e", "\xff", `"x":1,`, `"X"`}
	for i := 0; i < 1500; i++ {
		b := append([]byte(nil), seeds[rng.Intn(len(seeds))]...)
		p := rng.Intn(len(b) + 1)
		switch rng.Intn(4) {
		case 0: // delete a span
			q := p + rng.Intn(4)
			if q > len(b) {
				q = len(b)
			}
			b = append(b[:p], b[q:]...)
		case 1: // insert a piece
			b = append(b[:p], append([]byte(pieces[rng.Intn(len(pieces))]), b[p:]...)...)
		case 2: // flip a letter's case
			if p < len(b) && ('a' <= b[p] && b[p] <= 'z' || 'A' <= b[p] && b[p] <= 'Z') {
				b[p] ^= 0x20
			}
		default: // repeat a span, duplicating keys and elements
			q := p + rng.Intn(40)
			if q > len(b) {
				q = len(b)
			}
			b = append(b[:q], append(append([]byte(nil), b[p:q]...), b[q:]...)...)
		}
		checkAllDecoders(t, b)
	}
}

// TestDecodeStrictBodyCap pins the body cap at its edges: a value may end
// exactly at MaxRequestBytes, not one byte later, and whitespace after it
// may run past the cap.
func TestDecodeStrictBodyCap(t *testing.T) {
	val := `{"error":"x"}`
	for _, pad := range []int{MaxRequestBytes - len(val) - 1, MaxRequestBytes - len(val), MaxRequestBytes - len(val) + 1} {
		body := strings.Repeat(" ", pad) + val
		checkDecoders[ErrorResponse](t, []byte(body))
		checkDecoders[ErrorResponse](t, []byte(body+strings.Repeat(" ", 10)))
	}
	checkDecoders[ErrorResponse](t, []byte(val+strings.Repeat(" ", MaxRequestBytes+10)))
}

// errReader yields data, then fails.
type errReader struct {
	data []byte
	err  error
}

func (r *errReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestDecodeReadErrors: a read error fails a strict decode wherever it
// lands (malformed before the value ends, trailing data after), and fails
// DecodeJSON only when the value is incomplete, as with json.Decoder.
func TestDecodeReadErrors(t *testing.T) {
	cut := errors.New("connection reset")
	for _, data := range []string{`{"error":"x"}`, `{"error":"x"`, `{"error":"x"}  `, ``} {
		var got, want ErrorResponse
		gerr := decodeStrict(&errReader{[]byte(data), cut}, &got)
		werr := refDecodeStrict(&errReader{[]byte(data), cut}, &want)
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			t.Errorf("decodeStrict(%q then error): %v, encoding/json %v", data, gerr, werr)
		}
		gerr = DecodeJSON(&errReader{[]byte(data), cut}, &got)
		werr = json.NewDecoder(&errReader{[]byte(data), cut}).Decode(&want)
		sameOutcome(t, "DecodeJSON", []byte(data), gerr, werr, got, want)
	}
}

// hotShapedRequest is a /v1/route body shaped like route-hot's: a 48×48
// die with ten blocks' worth of blockage rectangles.
func hotShapedRequest() *RouteRequest {
	req := &RouteRequest{
		Grid:     GridSpec{W: 48, H: 48, PitchMM: 0.25},
		Kind:     "rbp",
		PeriodPS: 500,
		Src:      Point{3, 4},
		Dst:      Point{40, 29},
	}
	for i := 0; i < 4; i++ {
		r := Rect{X0: 5 + 10*i, Y0: 8, X1: 9 + 10*i, Y1: 14}
		req.Grid.Obstacles = append(req.Grid.Obstacles, r)
		req.Grid.RegisterBlockages = append(req.Grid.RegisterBlockages,
			Rect{r.X0 - 1, r.Y1, r.X1 + 1, r.Y1 + 1}, Rect{r.X0 - 1, r.Y0 - 1, r.X1 + 1, r.Y0},
			Rect{r.X0 - 1, r.Y0, r.X0, r.Y1}, Rect{r.X1, r.Y0, r.X1 + 1, r.Y1})
	}
	req.Grid.WiringBlockages = []Rect{{20, 30, 26, 38}, {30, 40, 36, 44}, {2, 20, 6, 26}}
	req.Grid.RegisterBlockages = append(req.Grid.RegisterBlockages, Rect{10, 30, 16, 36}, Rect{36, 2, 44, 6})
	return req
}

// hotShapedResponse is a route-hot-sized /v1/route answer: a 62-node path
// with a few registers and buffers.
func hotShapedResponse() *RouteResponse {
	resp := &RouteResponse{
		LatencyPS: 1500, SourceDelayPS: 212.375, Registers: 2, Buffers: 3,
		Stats: SearchStats{Configs: 4945, Pushed: 6120, Pruned: 812, BoundPruned: 2210,
			ProbeConfigs: 722, Waves: 3, MaxQSize: 377, ElapsedNS: 1893422},
		ProblemHash: strings.Repeat("0f", 32),
	}
	for i := 0; i < 62; i++ {
		resp.Path = append(resp.Path, Point{3 + i*37/61, 4 + i*25/61})
		gate := ""
		switch i {
		case 20, 41:
			gate = "reg"
		case 10, 30, 50:
			gate = "buf0"
		}
		resp.Gates = append(resp.Gates, gate)
	}
	return resp
}

// Allocation budgets of the codec's steady state on route-hot-shaped
// bodies, set from this code (encoding/json takes 29 and 34 allocations
// on the same decodes). A fallback to reflection, or a lost buffer pool,
// overruns them on any host: the counts are deterministic, unlike a
// clock.
const (
	routeRequestDecodeAllocs  = 6
	routeResponseDecodeAllocs = 4
)

// TestWireCodecAllocBudget gates the codec's allocations after a warm-up
// pass: encoding a RouteResponse into a reused buffer allocates nothing,
// and decoding a request and a response stays within budget.
func TestWireCodecAllocBudget(t *testing.T) {
	resp := hotShapedResponse()
	buf, err := AppendJSON(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = AppendJSON(buf[:0], resp) }); n != 0 {
		t.Errorf("encoding a RouteResponse into a reused buffer: %v allocs, want 0", n)
	}

	reqBody, err := json.Marshal(hotShapedRequest())
	if err != nil {
		t.Fatal(err)
	}
	respBody := append([]byte(nil), buf...)
	r := bytes.NewReader(nil)
	decodeReq := func() {
		r.Reset(reqBody)
		if _, err := DecodeRouteRequest(r); err != nil {
			t.Fatal(err)
		}
	}
	decodeResp := func() {
		r.Reset(respBody)
		var out RouteResponse
		if err := DecodeJSON(r, &out); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name   string
		run    func()
		budget float64
	}{
		{"DecodeRouteRequest", decodeReq, routeRequestDecodeAllocs},
		{"DecodeJSON(RouteResponse)", decodeResp, routeResponseDecodeAllocs},
	} {
		c.run() // warm-up: fills the buffer pool
		if n := testing.AllocsPerRun(100, c.run); n > c.budget {
			t.Errorf("%s: %v allocs per decode, budget %v", c.name, n, c.budget)
		} else {
			t.Logf("%s: %v allocs per decode (budget %v)", c.name, n, c.budget)
		}
	}
}

// refStreamDecoder is PlanStreamDecoder over encoding/json: the same
// line scanner, the reference line decoder, the same validation.
type refStreamDecoder struct {
	sc   *bufio.Scanner
	nets int
}

func newRefStreamDecoder(r io.Reader) *refStreamDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), MaxLineBytes)
	return &refStreamDecoder{sc: sc}
}

func (d *refStreamDecoder) line() ([]byte, error) {
	for d.sc.Scan() {
		if line := bytes.TrimSpace(d.sc.Bytes()); len(line) > 0 {
			return line, nil
		}
	}
	if err := d.sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

func (d *refStreamDecoder) header() (*PlanStreamHeader, error) {
	line, err := d.line()
	if err != nil {
		return nil, err
	}
	var h PlanStreamHeader
	if err := refDecodeStrictLine(line, &h); err != nil {
		return nil, err
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return &h, nil
}

func (d *refStreamDecoder) next(g *GridSpec) (*NetSpec, error) {
	line, err := d.line()
	if err != nil {
		return nil, err
	}
	d.nets++
	var n NetSpec
	if err := refDecodeStrictLine(line, &n); err != nil {
		return nil, err
	}
	if err := n.Validate(g); err != nil {
		return nil, err
	}
	return &n, nil
}

// checkPlanStream drives PlanStreamDecoder and the reference through the
// same bytes, requiring the same header, the same nets and the same end
// (clean EOF or an error) at the same line.
func checkPlanStream(t *testing.T, data []byte) {
	t.Helper()
	dec := NewPlanStreamDecoder(bytes.NewReader(data))
	ref := newRefStreamDecoder(bytes.NewReader(data))
	h, err := dec.Header()
	rh, rerr := ref.header()
	sameOutcome(t, "PlanStreamDecoder.Header", data, err, rerr, h, rh)
	if err != nil {
		return
	}
	for i := 1; ; i++ {
		n, err := dec.Next(&h.Grid)
		rn, rerr := ref.next(&rh.Grid)
		if (err == io.EOF) != (rerr == io.EOF) {
			t.Fatalf("net %d of %q: err = %v, reference err = %v", i, data, err, rerr)
		}
		sameOutcome(t, fmt.Sprintf("PlanStreamDecoder.Next #%d", i), data, err, rerr, n, rn)
		if err != nil {
			return
		}
	}
}

func TestPlanStreamDecoderMatchesReference(t *testing.T) {
	for _, s := range planStreamSeeds {
		checkPlanStream(t, []byte(s))
	}
}

// BenchmarkWireCodec prices the codec against encoding/json on the
// route-hot-shaped bodies of TestWireCodecAllocBudget: the server's strict
// request decode, the client's response decode, and the server's
// response encode.
func BenchmarkWireCodec(b *testing.B) {
	reqBody, err := json.Marshal(hotShapedRequest())
	if err != nil {
		b.Fatal(err)
	}
	resp := hotShapedResponse()
	respBody, err := json.Marshal(resp)
	if err != nil {
		b.Fatal(err)
	}
	r := bytes.NewReader(nil)
	var buf []byte
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"request-decode/codec", func() error { r.Reset(reqBody); _, err := DecodeRouteRequest(r); return err }},
		{"request-decode/encoding-json", func() error {
			r.Reset(reqBody)
			var req RouteRequest
			if err := refDecodeStrict(r, &req); err != nil {
				return err
			}
			return req.Validate()
		}},
		{"response-decode/codec", func() error { r.Reset(respBody); var out RouteResponse; return DecodeJSON(r, &out) }},
		{"response-decode/encoding-json", func() error {
			r.Reset(respBody)
			var out RouteResponse
			return json.NewDecoder(r).Decode(&out)
		}},
		{"response-encode/codec", func() (err error) { buf, err = AppendJSON(buf[:0], resp); return err }},
		{"response-encode/encoding-json", func() (err error) { buf, err = json.Marshal(resp); return err }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
