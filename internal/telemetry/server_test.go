package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestServerEndpoints boots the debug server on an ephemeral port and
// exercises /metrics, /progress, /debug/slow, and /debug/pprof/.
func TestServerEndpoints(t *testing.T) {
	prog := NewProgress()
	prog.Emit(Event{Kind: EventNetStart, Net: "cpu-dsp", Worker: 2, TimeNS: Now()})

	fr := NewFlightRecorder(1, 4, nil, nil)
	srv, err := NewServer("127.0.0.1:0", ServerOptions{Progress: prog, Recorder: fr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()
	base := "http://" + srv.Addr()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b), resp.Header.Get("Content-Type")
	}

	// /metrics defaults to the Prometheus text exposition.
	Default()
	code, body, ctype := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if ctype != PrometheusContentType {
		t.Errorf("/metrics Content-Type = %q, want %q", ctype, PrometheusContentType)
	}
	if !strings.Contains(body, "clockroute_searches_total") || !strings.Contains(body, "clockroute_goroutines") {
		t.Errorf("/metrics missing expected Prometheus series:\n%.500s", body)
	}

	code, body, _ = get("/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/progress is not JSON: %v", err)
	}
	if len(snap.InFlight) != 1 || snap.InFlight[0].Net != "cpu-dsp" {
		t.Errorf("/progress = %+v", snap)
	}

	code, body, _ = get("/debug/slow")
	if code != http.StatusOK {
		t.Fatalf("/debug/slow status %d", code)
	}
	var slow struct {
		Trees []json.RawMessage `json:"trees"`
	}
	if err := json.Unmarshal([]byte(body), &slow); err != nil {
		t.Fatalf("/debug/slow is not JSON: %v", err)
	}

	code, body, _ = get("/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	if code, _, _ := get("/debug/pprof/symbol"); code != http.StatusOK {
		t.Errorf("/debug/pprof/symbol status %d", code)
	}
}

func TestServerWithoutProgress(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()
	for path, want := range map[string]int{"/progress": http.StatusNotFound, "/debug/slow": http.StatusNotFound} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s without a backing component: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}
