package api

import (
	"strings"
	"testing"
)

const validRoute = `{"grid":{"w":16,"h":16,"pitch_mm":0.25},"kind":"rbp","period_ps":500,
  "src":{"x":1,"y":1},"dst":{"x":14,"y":14}}`

const validPlan = `{"grid":{"w":16,"h":16,"pitch_mm":0.25},
  "nets":[{"name":"a","src":{"x":1,"y":1},"dst":{"x":14,"y":14},"src_period_ps":500,"dst_period_ps":500}]}`

func TestDecodeRouteRequestValid(t *testing.T) {
	req, err := DecodeRouteRequest(strings.NewReader(validRoute))
	if err != nil {
		t.Fatal(err)
	}
	if req.Kind != "rbp" || req.PeriodPS != 500 || req.Dst != (Point{14, 14}) {
		t.Errorf("decoded %+v", req)
	}
}

func TestDecodeRouteRequestRejects(t *testing.T) {
	cases := map[string]string{
		"empty body":         ``,
		"not json":           `bogus`,
		"wrong top type":     `[1,2]`,
		"null":               `null`,
		"unknown field":      `{"grid":{"w":4,"h":4,"pitch_mm":1},"kind":"rbp","period_ps":500,"src":{"x":0,"y":0},"dst":{"x":3,"y":3},"surprise":1}`,
		"trailing data":      validRoute + ` {"again":true}`,
		"missing kind":       `{"grid":{"w":4,"h":4,"pitch_mm":1},"src":{"x":0,"y":0},"dst":{"x":3,"y":3}}`,
		"bad kind":           `{"grid":{"w":4,"h":4,"pitch_mm":1},"kind":"magic","src":{"x":0,"y":0},"dst":{"x":3,"y":3}}`,
		"rbp without period": `{"grid":{"w":4,"h":4,"pitch_mm":1},"kind":"rbp","src":{"x":0,"y":0},"dst":{"x":3,"y":3}}`,
		"gals one period":    `{"grid":{"w":4,"h":4,"pitch_mm":1},"kind":"gals","src_period_ps":500,"src":{"x":0,"y":0},"dst":{"x":3,"y":3}}`,
		"tiny grid":          `{"grid":{"w":1,"h":1,"pitch_mm":1},"kind":"fastpath","src":{"x":0,"y":0},"dst":{"x":0,"y":0}}`,
		"huge grid":          `{"grid":{"w":100000,"h":100000,"pitch_mm":0.1},"kind":"fastpath","src":{"x":0,"y":0},"dst":{"x":9,"y":9}}`,
		"zero pitch":         `{"grid":{"w":4,"h":4,"pitch_mm":0},"kind":"fastpath","src":{"x":0,"y":0},"dst":{"x":3,"y":3}}`,
		"off-grid endpoint":  `{"grid":{"w":4,"h":4,"pitch_mm":1},"kind":"fastpath","src":{"x":0,"y":0},"dst":{"x":9,"y":9}}`,
		"src equals dst":     `{"grid":{"w":4,"h":4,"pitch_mm":1},"kind":"fastpath","src":{"x":1,"y":1},"dst":{"x":1,"y":1}}`,
		"negative timeout":   `{"grid":{"w":4,"h":4,"pitch_mm":1},"kind":"fastpath","src":{"x":0,"y":0},"dst":{"x":3,"y":3},"timeout_ms":-5}`,
		"negative budget":    `{"grid":{"w":4,"h":4,"pitch_mm":1},"kind":"fastpath","src":{"x":0,"y":0},"dst":{"x":3,"y":3},"max_configs":-1}`,
		"huge coordinate":    `{"grid":{"w":4,"h":4,"pitch_mm":1,"obstacles":[{"x0":99999999,"y0":0,"x1":0,"y1":0}]},"kind":"fastpath","src":{"x":0,"y":0},"dst":{"x":3,"y":3}}`,
	}
	for name, body := range cases {
		if _, err := DecodeRouteRequest(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDecodePlanRequestValid(t *testing.T) {
	req, err := DecodePlanRequest(strings.NewReader(validPlan))
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Nets) != 1 || req.Nets[0].Name != "a" {
		t.Errorf("decoded %+v", req)
	}
}

func TestDecodePlanRequestRejects(t *testing.T) {
	cases := map[string]string{
		"no nets":        `{"grid":{"w":4,"h":4,"pitch_mm":1},"nets":[]}`,
		"empty name":     `{"grid":{"w":4,"h":4,"pitch_mm":1},"nets":[{"name":"","src":{"x":0,"y":0},"dst":{"x":3,"y":3},"src_period_ps":500,"dst_period_ps":500}]}`,
		"duplicate name": `{"grid":{"w":4,"h":4,"pitch_mm":1},"nets":[{"name":"a","src":{"x":0,"y":0},"dst":{"x":3,"y":3},"src_period_ps":500,"dst_period_ps":500},{"name":"a","src":{"x":0,"y":1},"dst":{"x":3,"y":2},"src_period_ps":500,"dst_period_ps":500}]}`,
		"zero period":    `{"grid":{"w":4,"h":4,"pitch_mm":1},"nets":[{"name":"a","src":{"x":0,"y":0},"dst":{"x":3,"y":3},"src_period_ps":0,"dst_period_ps":500}]}`,
		"bad width":      `{"grid":{"w":4,"h":4,"pitch_mm":1},"nets":[{"name":"a","src":{"x":0,"y":0},"dst":{"x":3,"y":3},"src_period_ps":500,"dst_period_ps":500,"wire_widths":[0]}]}`,
		"negative workers": `{"grid":{"w":4,"h":4,"pitch_mm":1},"workers":-1,
		  "nets":[{"name":"a","src":{"x":0,"y":0},"dst":{"x":3,"y":3},"src_period_ps":500,"dst_period_ps":500}]}`,
	}
	for name, body := range cases {
		if _, err := DecodePlanRequest(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDecodePlanRequestRejectsUnknownFields(t *testing.T) {
	body := `{"grid":{"w":5,"h":5,"pitch_mm":1},"bogus":1,
	  "nets":[{"name":"n","src":{"x":0,"y":0},"dst":{"x":4,"y":4},"src_period_ps":300,"dst_period_ps":300}]}`
	if _, err := DecodePlanRequest(strings.NewReader(body)); err == nil {
		t.Error("unknown fields must be rejected")
	}
}

// demoPlan is a small valid two-net plan that each Validate case breaks
// in one place.
func demoPlan() *PlanRequest {
	return &PlanRequest{
		Grid: GridSpec{W: 8, H: 8, PitchMM: 0.5},
		Nets: []NetSpec{
			{Name: "a", Src: Point{0, 0}, Dst: Point{7, 7}, SrcPeriodPS: 300, DstPeriodPS: 300},
			{Name: "b", Src: Point{0, 7}, Dst: Point{7, 0}, SrcPeriodPS: 300, DstPeriodPS: 400},
		},
	}
}

func TestDecodePlanRequestValidateFailures(t *testing.T) {
	if err := demoPlan().Validate(); err != nil {
		t.Fatalf("demo plan invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*PlanRequest)
		frag string
	}{
		{"tiny grid", func(r *PlanRequest) { r.Grid.W = 1 }, "too small"},
		{"pitch", func(r *PlanRequest) { r.Grid.PitchMM = 0 }, "pitch"},
		{"no nets", func(r *PlanRequest) { r.Nets = nil }, "no nets"},
		{"anon net", func(r *PlanRequest) { r.Nets[0].Name = "" }, "empty name"},
		{"dup net", func(r *PlanRequest) { r.Nets[1].Name = r.Nets[0].Name }, "duplicate"},
		{"off grid", func(r *PlanRequest) { r.Nets[0].Dst = Point{99, 0} }, "must lie on the"},
		{"bad period", func(r *PlanRequest) { r.Nets[0].SrcPeriodPS = 0 }, "positive finite periods"},
	}
	for _, c := range cases {
		req := demoPlan()
		c.mut(req)
		err := req.Validate()
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.frag)
		}
	}
}

func TestDecodeOversizedBody(t *testing.T) {
	// A syntactically valid body padded past MaxRequestBytes must be
	// rejected, not decoded.
	huge := `{"grid":{"w":4,"h":4,"pitch_mm":1},"kind":"fastpath","src":{"x":0,"y":0},"dst":{"x":3,"y":3}}`
	pad := strings.Repeat(" ", MaxRequestBytes)
	if _, err := DecodeRouteRequest(strings.NewReader(pad + huge)); err == nil {
		t.Error("oversized body accepted")
	}
}
