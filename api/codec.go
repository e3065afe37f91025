package api

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// The wire codec. Every body the service and its client exchange is
// encoded and decoded here by hand-written, per-type code, without
// reflection, under one contract: the bytes are exactly encoding/json's
// and a decode accepts exactly the inputs encoding/json accepts, yielding
// equal values. ETags, cache keys, byte budgets and snapshot files all hang
// off those bytes, so the codec may not move them. encoding/json stays in
// the tests as the oracle the codec is fuzzed and property-tested against
// (codec_test.go, fuzz_test.go).
//
// Encoding follows the struct tags: field order, omitempty (-0 counts as
// empty), null for a nil slice or pointer without omitempty, ES6 float
// formatting, and HTML-safe string escaping. Decoding matches keys exactly,
// else under bytes.EqualFold; lets the last of repeated keys win, merging
// into structs, pointed-to structs and reused slice elements; treats null
// as a no-op except on slices and pointers, which it clears; and rejects
// nesting deeper than encoding/json's limit. A strict decode also rejects
// unknown fields, as json.Decoder.DisallowUnknownFields does.
//
// The types deliberately implement neither json.Marshaler nor
// json.Unmarshaler: encoding/json would still scan and compact every
// value, and the oracle would end up testing the codec against itself.

// Wire is the set of body types the codec encodes and decodes: every
// request, response, error and stream line of the service.
type Wire interface {
	RouteRequest | PlanRequest | PlanStreamHeader | NetSpec |
		RouteResponse | PlanResponse | NetResult | PlanStreamTrailer | ErrorResponse
}

// AppendJSON appends the JSON encoding of v to b, byte for byte what
// json.Marshal(v) returns. A NaN or infinite float is an error.
func AppendJSON[T Wire](b []byte, v *T) ([]byte, error) {
	e := encoder{b: b}
	switch v := any(v).(type) {
	case *RouteRequest:
		e.routeRequest(v)
	case *PlanRequest:
		e.planRequest(v)
	case *PlanStreamHeader:
		e.planStreamHeader(v)
	case *NetSpec:
		e.netSpec(v)
	case *RouteResponse:
		e.routeResponse(v)
	case *PlanResponse:
		e.planResponse(v)
	case *NetResult:
		e.netResult(v)
	case *PlanStreamTrailer:
		e.planStreamTrailer(v)
	case *ErrorResponse:
		e.errorResponse(v)
	}
	return e.b, e.err
}

// EncodeJSON writes v's JSON encoding and a newline to w in one Write, as
// json.NewEncoder(w).Encode(v) does; on an encoding error nothing is
// written.
func EncodeJSON[T Wire](w io.Writer, v *T) error {
	p := getBuf()
	defer putBuf(p)
	b, err := AppendJSON(*p, v)
	*p = b
	if err != nil {
		return err
	}
	b = append(b, '\n')
	*p = b
	_, err = w.Write(b)
	return err
}

// Unmarshal decodes data, which must hold one JSON value and nothing but
// whitespace around it, into v as json.Unmarshal does: unknown fields are
// skipped.
func Unmarshal[T Wire](data []byte, v *T) error {
	d := decoder{data: data}
	decodeValue(&d, v)
	d.end()
	return d.err
}

// DecodeJSON decodes the first JSON value read from r into v as
// json.NewDecoder(r).Decode(v) does: unknown fields are skipped and
// whatever follows the value is ignored. It reads r to its end; a read
// error after a complete value is ignored, as the json.Decoder never sees
// it.
func DecodeJSON[T Wire](r io.Reader, v *T) error {
	p := getBuf()
	defer putBuf(p)
	b, rerr := readAll(r, *p)
	*p = b
	d := decoder{data: b}
	decodeValue(&d, v)
	if d.err != nil && rerr != nil {
		return rerr
	}
	return d.err
}

// decodeStrictPrefix decodes the first JSON value of data into v,
// rejecting unknown fields, and returns the offset just past the value.
func decodeStrictPrefix[T Wire](data []byte, v *T) (int, error) {
	d := decoder{data: data, strict: true}
	decodeValue(&d, v)
	return d.pos, d.err
}

// onlySpace reports whether b holds nothing but JSON whitespace.
func onlySpace(b []byte) bool {
	for _, c := range b {
		if !isSpace(c) {
			return false
		}
	}
	return true
}

func decodeValue[T Wire](d *decoder, v *T) {
	switch v := any(v).(type) {
	case *RouteRequest:
		d.routeRequest(v)
	case *PlanRequest:
		d.planRequest(v)
	case *PlanStreamHeader:
		d.planStreamHeader(v)
	case *NetSpec:
		d.netSpec(v)
	case *RouteResponse:
		d.routeResponse(v)
	case *PlanResponse:
		d.planResponse(v)
	case *NetResult:
		d.netResult(v)
	case *PlanStreamTrailer:
		d.planStreamTrailer(v)
	case *ErrorResponse:
		d.errorResponse(v)
	}
}

// Read and write buffers are pooled: a decode copies every string out of
// its input, and an encode hands its bytes to a Write that copies them, so
// neither outlives the call. Buffers grown past maxPooledBuf by a large
// plan are dropped rather than pinned.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

func getBuf() *[]byte {
	p := bufPool.Get().(*[]byte)
	*p = (*p)[:0]
	return p
}

func putBuf(p *[]byte) {
	if cap(*p) <= maxPooledBuf {
		bufPool.Put(p)
	}
}

// readAll appends r's bytes to b until EOF or an error, as io.ReadAll does.
func readAll(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
	}
}

// encoder appends JSON to b; the first unsupported value latches err.
type encoder struct {
	b   []byte
	err error
}

// key opens a member: a comma unless the object was just opened, then
// the quoted name and colon, passed pre-rendered as `"name":`.
func (e *encoder) key(k string) {
	if e.b[len(e.b)-1] != '{' {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, k...)
}

func (e *encoder) int(v int64) { e.b = strconv.AppendInt(e.b, v, 10) }

// float renders v as encoding/json does, after ES6's number-to-string
// rule: shortest round-trip digits, in 'e' form below 1e-6 and from 1e21
// on, with a one-digit negative exponent unpadded (1e-7, not 1e-07).
func (e *encoder) float(v float64) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		if e.err == nil {
			e.err = fmt.Errorf("api: unsupported value: %s", strconv.FormatFloat(v, 'g', -1, 64))
		}
		e.b = append(e.b, '0') // keeps the buffer well-formed for key; discarded with the error
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, v, format, -1, 64)
	if format == 'e' {
		n := len(e.b)
		if n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// htmlSafe marks the ASCII bytes a string may carry unescaped: everything
// printable except the quote, the backslash, and the HTML-sensitive <, >
// and &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// string quotes s as encoding/json does with HTML escaping on: short
// escapes for \b \f \n \r \t, \u00XX for other control bytes and <, >, &,
// the escaped forms of U+2028 and U+2029 (JavaScript line separators), and
// an escaped U+FFFD for each byte of invalid UTF-8.
func (e *encoder) string(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == 0x2028 || r == 0x2029 { // LINE and PARAGRAPH SEPARATOR
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

// array renders s as a JSON array, or null when s is nil.
func array[T any](e *encoder, s []T, elem func(*encoder, *T)) {
	if s == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i := range s {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		elem(e, &s[i])
	}
	e.b = append(e.b, ']')
}

func (e *encoder) floatElem(v *float64) { e.float(*v) }

func (e *encoder) stringElem(v *string) { e.string(*v) }

// maxDepth is encoding/json's nesting limit: deeper input is rejected, so
// a hostile body cannot grow the stack.
const maxDepth = 10000

// decoder is a recursive-descent JSON parser that decodes straight into
// the wire types. The first error latches in err and turns every later
// step into a no-op that reports no more input, so the per-type decoders
// need no error checks of their own.
type decoder struct {
	data   []byte
	pos    int
	strict bool // reject unknown fields
	depth  int
	err    error
	buf    []byte // unescaped string scratch
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// next skips whitespace and returns the next byte without consuming it:
// 0 at the end of input or once an error has latched.
func (d *decoder) next() byte {
	if d.err != nil {
		return 0
	}
	for ; d.pos < len(d.data); d.pos++ {
		if c := d.data[d.pos]; c > ' ' || !isSpace(c) {
			return c
		}
	}
	return 0
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// syntaxError reports the byte at d.pos as unexpected in context, or the
// input as truncated.
func (d *decoder) syntaxError(context string) {
	if d.pos >= len(d.data) {
		d.fail(errors.New("unexpected end of JSON input"))
		return
	}
	d.fail(fmt.Errorf("invalid character %q %s at offset %d", d.data[d.pos], context, d.pos))
}

// typeError rejects a well-started value of the wrong JSON type for a Go
// field of type want.
func (d *decoder) typeError(want string) {
	var got string
	switch d.next() {
	case '{':
		got = "object"
	case '[':
		got = "array"
	case '"':
		got = "string"
	case 't', 'f':
		got = "bool"
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		got = "number"
	default:
		d.syntaxError("looking for beginning of value")
		return
	}
	d.fail(fmt.Errorf("cannot decode %s into %s at offset %d", got, want, d.pos))
}

// literal consumes the keyword lit ("true", "false" or "null").
func (d *decoder) literal(lit string) bool {
	if d.err != nil {
		return false
	}
	rest := d.data[d.pos:]
	if len(rest) >= len(lit) && string(rest[:len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	for i := 0; i < len(lit); i++ {
		if i >= len(rest) || rest[i] != lit[i] {
			d.pos += i
			d.syntaxError("in literal " + lit)
			return false
		}
	}
	return false
}

// null consumes a null literal if one is next.
func (d *decoder) null() bool {
	if d.next() != 'n' {
		return false
	}
	d.literal("null")
	return true
}

func (d *decoder) open() {
	d.pos++
	if d.depth++; d.depth > maxDepth {
		d.fail(fmt.Errorf("exceeded max depth %d at offset %d", maxDepth, d.pos))
	}
}

// object opens a struct's object and reports whether a member follows.
// null leaves the struct as it is; any other non-object is an error.
func (d *decoder) object(want string) bool {
	switch d.next() {
	case '{':
		d.open()
		if d.next() == '}' {
			d.pos++
			d.depth--
			return false
		}
		return d.err == nil
	case 'n':
		d.literal("null")
		return false
	}
	d.typeError(want)
	return false
}

// more consumes the separator after a member's value and reports whether
// another member follows, closing the object when none does.
func (d *decoder) more() bool {
	switch d.next() {
	case ',':
		d.pos++
		return true
	case '}':
		d.pos++
		d.depth--
		return false
	}
	if d.err == nil {
		d.syntaxError("after object key:value pair")
	}
	return false
}

// key reads a member name and its colon and returns the entry of fields
// the name matches, exactly or else under bytes.EqualFold, or "" when none
// does. A strict decoder rejects an unmatched name.
func (d *decoder) key(fields []string) string {
	if d.next() != '"' {
		d.syntaxError("looking for beginning of object key string")
		return ""
	}
	k := d.stringBytes()
	if d.next() != ':' {
		d.syntaxError("after object key")
		return ""
	}
	d.pos++
	for _, f := range fields {
		if string(k) == f {
			return f
		}
	}
	for _, f := range fields {
		if bytes.EqualFold(k, []byte(f)) {
			return f
		}
	}
	if d.strict {
		d.fail(fmt.Errorf("unknown field %q", k))
	}
	return ""
}

// stringBytes consumes a string literal at d.pos and returns its unescaped
// bytes, valid until the next call: a slice of the input when no escape or
// invalid UTF-8 needs rewriting, else of d.buf. Escapes follow the JSON
// grammar; \u surrogate pairs combine, and a lone surrogate or invalid
// UTF-8 becomes U+FFFD, as in encoding/json.
func (d *decoder) stringBytes() []byte {
	d.pos++ // opening quote
	start := d.pos
	for i := start; i < len(d.data); {
		c := d.data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i]
		case c == '\\':
			return d.unescape(start, i)
		case c < 0x20:
			d.pos = i
			d.syntaxError("in string literal")
			return nil
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unescape(start, i)
			}
			i += size
		}
	}
	d.pos = len(d.data)
	d.syntaxError("in string literal")
	return nil
}

// unescape finishes a string whose bytes from start are plain up to i.
func (d *decoder) unescape(start, i int) []byte {
	b := append(d.buf[:0], d.data[start:i]...)
	defer func() { d.buf = b[:0] }()
	for i < len(d.data) {
		c := d.data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return b
		case c < 0x20:
			d.pos = i
			d.syntaxError("in string literal")
			return nil
		case c == '\\':
			if i+1 >= len(d.data) {
				d.pos = len(d.data)
				d.syntaxError("in string escape code")
				return nil
			}
			switch esc := d.data[i+1]; esc {
			case '"', '\\', '/':
				b = append(b, esc)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r, ok := d.hex4(i + 2)
				if !ok {
					return nil
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if r2, ok := d.u4At(i); ok {
						if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
							b = utf8.AppendRune(b, dec)
							i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.pos = i + 1
				d.syntaxError("in string escape code")
				return nil
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			b = utf8.AppendRune(b, r) // invalid bytes become U+FFFD
			i += size
		}
	}
	d.pos = len(d.data)
	d.syntaxError("in string literal")
	return nil
}

// hex4 parses the four hex digits of a \u escape at i, failing the decode
// when they are not there.
func (d *decoder) hex4(i int) (rune, bool) {
	var r rune
	for j := i; j < i+4; j++ {
		if j >= len(d.data) {
			d.pos = len(d.data)
			d.syntaxError("in \\u hexadecimal character escape")
			return 0, false
		}
		c := d.data[j]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			d.pos = j
			d.syntaxError("in \\u hexadecimal character escape")
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// u4At reads a complete \uXXXX escape at i without failing the decode
// when there is none (a lone surrogate's successor is parsed on its own).
func (d *decoder) u4At(i int) (rune, bool) {
	if i+6 > len(d.data) || d.data[i] != '\\' || d.data[i+1] != 'u' {
		return 0, false
	}
	var r rune
	for _, c := range d.data[i+2 : i+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// number consumes a number literal, checked against the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its bytes.
// plain reports that it has neither fraction nor exponent.
func (d *decoder) number() (lit []byte, plain bool) {
	start, i := d.pos, d.pos
	digits := func() bool {
		j := i
		for i < len(d.data) && '0' <= d.data[i] && d.data[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(d.data) && d.data[i] == '-' {
		i++
	}
	switch {
	case i < len(d.data) && d.data[i] == '0':
		i++
	case !digits():
		d.pos = i
		d.syntaxError("in numeric literal")
		return nil, false
	}
	plain = true
	if i < len(d.data) && d.data[i] == '.' {
		plain = false
		i++
		if !digits() {
			d.pos = i
			d.syntaxError("after decimal point in numeric literal")
			return nil, false
		}
	}
	if i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		plain = false
		i++
		if i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if !digits() {
			d.pos = i
			d.syntaxError("in exponent of numeric literal")
			return nil, false
		}
	}
	d.pos = i
	return d.data[start:i], plain
}

// integer decodes a number into an int of bits bits, rejecting fractions,
// exponents and overflow as strconv.ParseInt does.
func (d *decoder) integer(bits int, want string) (int64, bool) {
	switch c := d.next(); {
	case c == 'n':
		d.literal("null")
		return 0, false
	case c != '-' && (c < '0' || c > '9'):
		d.typeError(want)
		return 0, false
	}
	lit, plain := d.number()
	if d.err != nil {
		return 0, false
	}
	// Up to 18 digits cannot overflow 63 bits: skip ParseInt's generality.
	if plain && bits == 64 && len(lit) <= 18 {
		neg := lit[0] == '-'
		digits := lit
		if neg {
			digits = lit[1:]
		}
		var n int64
		for _, c := range digits {
			n = n*10 + int64(c-'0')
		}
		if neg {
			n = -n
		}
		return n, true
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		d.fail(fmt.Errorf("cannot decode number %s into %s", lit, want))
		return 0, false
	}
	return n, true
}

func (d *decoder) int(p *int) {
	if n, ok := d.integer(strconv.IntSize, "int"); ok {
		*p = int(n)
	}
}

func (d *decoder) int64(p *int64) {
	if n, ok := d.integer(64, "int64"); ok {
		*p = n
	}
}

// float decodes a number as strconv.ParseFloat does; out-of-range values
// are rejected.
func (d *decoder) float(p *float64) {
	switch c := d.next(); {
	case c == 'n':
		d.literal("null")
		return
	case c != '-' && (c < '0' || c > '9'):
		d.typeError("float64")
		return
	}
	lit, _ := d.number()
	if d.err != nil {
		return
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.fail(fmt.Errorf("cannot decode number %s into float64", lit))
		return
	}
	*p = f
}

func (d *decoder) bool(p *bool) {
	switch d.next() {
	case 't':
		if d.literal("true") {
			*p = true
		}
	case 'f':
		if d.literal("false") {
			*p = false
		}
	case 'n':
		d.literal("null")
	default:
		d.typeError("bool")
	}
}

func (d *decoder) string(p *string) {
	switch d.next() {
	case '"':
		if b := d.stringBytes(); d.err == nil {
			*p = label(b)
		}
	case 'n':
		d.literal("null")
	default:
		d.typeError("string")
	}
}

// label converts decoded string bytes, sharing the constant for the
// labels the service itself emits (kinds, modes, cache modes, gates), so
// a response's gate list costs no allocation per element.
func label(b []byte) string {
	switch string(b) {
	case "":
		return ""
	case "reg":
		return "reg"
	case "fifo":
		return "fifo"
	case "latch":
		return "latch"
	case "buf0":
		return "buf0"
	case "buf1":
		return "buf1"
	case "buf2":
		return "buf2"
	case "rbp":
		return "rbp"
	case "gals":
		return "gals"
	case "fastpath":
		return "fastpath"
	case CacheModeDefault:
		return CacheModeDefault
	case CacheModeBypass:
		return CacheModeBypass
	case CacheModeRefresh:
		return CacheModeRefresh
	}
	return string(b)
}

// slice decodes an array into *s as encoding/json does: elements decode
// into the slice's existing storage (so a repeated key merges into the
// elements an earlier occurrence left, even past the current length),
// the slice is cut to the array's length, [] gives an empty non-nil
// slice, and null sets it to nil.
func slice[T any](d *decoder, s *[]T, elem func(*decoder, *T), want string) {
	switch d.next() {
	case '[':
		d.open()
	case 'n':
		if d.literal("null") {
			*s = nil
		}
		return
	default:
		d.typeError(want)
		return
	}
	v := *s
	i := 0
	if d.next() == ']' {
		d.pos++
		d.depth--
	} else {
		if cap(v) == 0 {
			v = make([]T, 0, d.countElems())
		}
		for d.err == nil {
			if i < cap(v) {
				v = v[:i+1]
			} else {
				var zero T
				v = append(v[:i], zero)
			}
			elem(d, &v[i])
			i++
			if c := d.next(); c == ',' {
				d.pos++
				continue
			} else if c == ']' {
				d.pos++
				d.depth--
				break
			}
			if d.err == nil {
				d.syntaxError("after array element")
			}
		}
		if d.err != nil {
			return
		}
	}
	if v == nil {
		v = []T{}
	}
	*s = v[:i]
}

// pointer decodes a pointer-to-struct member: null clears it, anything
// else decodes into the pointed-to value, allocated if need be.
func pointer[T any](d *decoder, p **T, decode func(*decoder, *T)) {
	if d.null() {
		*p = nil
		return
	}
	if *p == nil {
		*p = new(T)
	}
	decode(d, *p)
}

// maxPresize bounds countElems' estimate, so a body of bare commas cannot
// make the decoder allocate far more than it read.
const maxPresize = 1024

// structural marks the bytes countElems acts on.
var structural = [256]bool{'"': true, '[': true, '{': true, ']': true, '}': true, ',': true}

// countElems estimates the elements of the array opened at d.pos, to size
// its slice once: it counts the commas at the array's own level up to its
// closing bracket, stepping over strings. It checks no syntax, which the
// decode that follows does; a wrong estimate costs only a regrow.
func (d *decoder) countElems() int {
	n, depth := 1, 0
	for i := d.pos; i < len(d.data) && n < maxPresize; i++ {
		c := d.data[i]
		if !structural[c] {
			continue
		}
		switch c {
		case '"':
			for i++; i < len(d.data) && d.data[i] != '"'; i++ {
				if d.data[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				return n
			}
			depth--
		case ',':
			if depth == 0 {
				n++
			}
		}
	}
	return n
}

// skip consumes one value of any shape, checking its syntax: the fate of
// an unknown field in a lenient decode.
func (d *decoder) skip() {
	switch c := d.next(); c {
	case '{':
		d.open()
		if d.next() == '}' {
			d.pos++
			d.depth--
			return
		}
		for d.err == nil {
			if d.next() != '"' {
				d.syntaxError("looking for beginning of object key string")
				return
			}
			d.stringBytes()
			if d.next() != ':' {
				d.syntaxError("after object key")
				return
			}
			d.pos++
			d.skip()
			if !d.more() {
				return
			}
		}
	case '[':
		d.open()
		if d.next() == ']' {
			d.pos++
			d.depth--
			return
		}
		for d.err == nil {
			d.skip()
			switch d.next() {
			case ',':
				d.pos++
			case ']':
				d.pos++
				d.depth--
				return
			default:
				d.syntaxError("after array element")
			}
		}
	case '"':
		d.stringBytes()
	case 't':
		d.literal("true")
	case 'f':
		d.literal("false")
	case 'n':
		d.literal("null")
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		d.number()
	default:
		d.syntaxError("looking for beginning of value")
	}
}

// end requires nothing but whitespace after the value.
func (d *decoder) end() {
	if d.next() != 0 || d.pos < len(d.data) {
		d.syntaxError("after top-level value")
	}
}
