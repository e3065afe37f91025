package client

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"clockroute/api"
)

// refResultLine is readResultLine over encoding/json: the trailer test
// and NetResult decode the client ran before the api codec, kept as the
// oracle.
func refResultLine(line []byte) (api.NetResult, *api.PlanStreamTrailer, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var t api.PlanStreamTrailer
	if err := dec.Decode(&t); err == nil && (t.Stats != nil || t.Error != "") {
		return api.NetResult{}, &t, nil
	}
	var nr api.NetResult
	if err := json.Unmarshal(line, &nr); err != nil {
		return api.NetResult{}, nil, err
	}
	return nr, nil, nil
}

// FuzzResultLine fuzzes the client's per-line step of a streamed plan
// response, which the coordinator trusts with backend output, against the
// encoding/json reference: the same trailer or result, or an error from
// both.
func FuzzResultLine(f *testing.F) {
	for _, s := range []string{
		`{"name":"a","mode":"rbp","latency_ps":1500,"src_cycles":3,"registers":2,"buffers":1,"wire_mm":12.5,` +
			`"wire_width":1,"path":[{"x":1,"y":1},{"x":1,"y":2}],"gates":["","reg"],"elapsed_ns":1200,` +
			`"problem_hash":"00ff","cached":true}`,
		`{"name":"b","error":"planner: net \"b\": no path"}`,
		`{"stats":{"workers":2,"nets_routed":3,"nets_failed":0,"total_configs":9000,"total_pushed":9100,` +
			`"total_pruned":40,"total_probe_configs":700,"total_waves":6,"max_q_size":300,"elapsed_ns":5}}`,
		`{"error":"api: stream net 3: malformed line: unexpected EOF"}`,
		`{"error":"cut"} {"name":"x"}`,
		`{"stats":null,"error":""}`,
		`{"name":"n","stats":{"workers":1}}`,
		`{"Name":"n","LATENCY_PS":1,"bogus":[1,{"a":null}]}`,
		`{}`, `null`, `[]`, `{"name":"x"} trailing`, `{"name":`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		nr, tr, err := readResultLine(line)
		wnr, wtr, werr := refResultLine(line)
		if (err == nil) != (werr == nil) {
			t.Fatalf("readResultLine(%q): err = %v, encoding/json err = %v", line, err, werr)
		}
		if err == nil && (!reflect.DeepEqual(nr, wnr) || !reflect.DeepEqual(tr, wtr)) {
			t.Fatalf("readResultLine(%q) = %#v, %#v; encoding/json %#v, %#v", line, nr, tr, wnr, wtr)
		}
	})
}
