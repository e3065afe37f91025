package api

import "io"

// Serving a stored answer without a re-encode. The server's result cache
// keeps a RouteResponse or NetResult as its encoding, with Cached false
// and, for a NetResult, Name empty. Both types write "cached" last and
// omit it when false, and a NetResult writes "name" first and always, so
// the answer a hit serves is the stored bytes with `,"cached":true`
// spliced before the closing brace and, for a net, the request's name
// spliced into the opening `{"name":""`. Each splice below yields exactly
// AppendJSON of the flagged, named value (FuzzHitSplice holds them to
// json.Marshal), and none of them parses the bytes it copies.

// namelessNet opens the encoding of every NetResult with an empty Name.
const namelessNet = `{"name":""`

// MarshalExact returns prefix followed by v's encoding in a new slice
// whose capacity is its length. It encodes once into a pooled buffer and
// copies the result out, so a value that is kept for long, such as a cache
// entry, pins no spare capacity. A NaN or infinite float is an error.
func MarshalExact[T Wire](prefix []byte, v *T) ([]byte, error) {
	p := getBuf()
	defer putBuf(p)
	b, err := AppendJSON(append(*p, prefix...), v)
	*p = b
	if err != nil {
		return nil, err
	}
	return append(make([]byte, 0, len(b)), b...), nil
}

// AppendCached appends enc, the encoding of a RouteResponse or NetResult
// whose Cached is false, as the encoding of the same value with Cached
// set.
func AppendCached(b, enc []byte) []byte {
	b = append(b, enc[:len(enc)-1]...)
	return append(b, `,"cached":true}`...)
}

// AppendNamed appends enc, the encoding of a NetResult whose Name is
// empty, as the encoding of the same value with Name set to name and, when
// cached is true, Cached set (enc must then have Cached false).
func AppendNamed(b, enc []byte, name string, cached bool) []byte {
	e := encoder{b: append(b, `{"name":`...)}
	e.string(name)
	rest := enc[len(namelessNet):]
	if cached {
		return AppendCached(e.b, rest)
	}
	return append(e.b, rest...)
}

// AppendPlanResponse appends the encoding of a PlanResponse whose Nets
// encode, element by element, to nets (a nil nets is a nil Nets) and
// whose Stats is stats: byte for byte AppendJSON of that PlanResponse.
func AppendPlanResponse(b []byte, nets [][]byte, stats *PlanStats) []byte {
	e := encoder{b: append(b, `{"nets":`...)}
	array(&e, nets, func(e *encoder, n *[]byte) { e.b = append(e.b, *n...) })
	e.b = append(e.b, `,"stats":`...)
	e.planStats(stats)
	e.b = append(e.b, '}')
	return e.b
}

// WriteLine writes the bytes appendBody appends to an empty buffer, and a
// newline, to w in one Write, as EncodeJSON does for a value: the way to
// send a body assembled from stored encodings. The buffer is pooled.
func WriteLine(w io.Writer, appendBody func(b []byte) []byte) error {
	p := getBuf()
	defer putBuf(p)
	b := append(appendBody(*p), '\n')
	*p = b
	_, err := w.Write(b)
	return err
}
