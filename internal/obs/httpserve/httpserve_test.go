package httpserve

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"xtalksta/internal/obs"
)

func get(t *testing.T, h http.Handler, path string, hdr ...string) (int, string, http.Header) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	body, err := io.ReadAll(rr.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rr.Code, string(body), rr.Result().Header
}

func TestEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter(obs.MArcEvaluations).Add(99)
	srv := New(reg)
	srv.SetSessions(func() any { return map[string]int{"active_sessions": 2} })
	h := srv.Handler()

	code, body, hdr := get(t, h, "/metrics")
	if code != 200 || !strings.Contains(hdr.Get("Content-Type"), "version=0.0.4") {
		t.Fatalf("/metrics: code %d content-type %q", code, hdr.Get("Content-Type"))
	}
	if !strings.Contains(body, "arc_evaluations_total 99") {
		t.Errorf("/metrics missing counter value:\n%s", body)
	}
	// RegisterAll ran in New: every canonical family is present before
	// any analysis recorded a sample.
	for _, def := range obs.AllMetrics() {
		if !strings.Contains(body, "# TYPE "+def.Name+" "+def.Kind) {
			t.Errorf("/metrics missing pre-registered family %q", def.Name)
		}
	}

	code, body, _ = get(t, h, "/debug/obs/snapshot")
	if code != 200 || !strings.Contains(body, "arc_evaluations_total") {
		t.Errorf("/debug/obs/snapshot: code %d body %q", code, body)
	}

	code, body, _ = get(t, h, "/debug/obs/sessions")
	if code != 200 || !strings.Contains(body, `"active_sessions": 2`) {
		t.Errorf("/debug/obs/sessions: code %d body %q", code, body)
	}

	// Critpath: placeholder text before a report, then both renderings.
	code, body, _ = get(t, h, "/debug/obs/critpath")
	if code != 200 || !strings.Contains(body, "no attribution report yet") {
		t.Errorf("critpath placeholder: code %d body %q", code, body)
	}
	srv.SetCritpath("path 1: N1 rise\n", map[string]string{"mode": "Iterative"})
	_, body, _ = get(t, h, "/debug/obs/critpath")
	if !strings.Contains(body, "path 1: N1 rise") {
		t.Errorf("critpath text: %q", body)
	}
	_, body, _ = get(t, h, "/debug/obs/critpath?format=json")
	if !strings.Contains(body, `"mode": "Iterative"`) {
		t.Errorf("critpath json (query): %q", body)
	}
	_, body, _ = get(t, h, "/debug/obs/critpath", "Accept", "application/json")
	if !strings.Contains(body, `"mode": "Iterative"`) {
		t.Errorf("critpath json (accept): %q", body)
	}

	code, body, _ = get(t, h, "/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: code %d", code)
	}
	code, _, _ = get(t, h, "/debug/pprof/cmdline")
	if code != 200 {
		t.Errorf("/debug/pprof/cmdline: code %d", code)
	}

	code, body, _ = get(t, h, "/")
	if code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index: code %d body %q", code, body)
	}
	code, _, _ = get(t, h, "/definitely/not/here")
	if code != 404 {
		t.Errorf("unknown path: code %d, want 404", code)
	}

	// Each route incremented its labeled request counter.
	_, body, _ = get(t, h, "/metrics")
	if !strings.Contains(body, `obs_http_requests_total{route="/debug/obs/sessions"} 1`) {
		t.Errorf("request counter missing:\n%s", body)
	}
}

func TestNilRegistryServes(t *testing.T) {
	srv := New(nil)
	h := srv.Handler()
	if code, _, _ := get(t, h, "/metrics"); code != 200 {
		t.Errorf("/metrics on nil registry: code %d", code)
	}
	if code, body, _ := get(t, h, "/debug/obs/sessions"); code != 200 || strings.TrimSpace(body) != "null" {
		t.Errorf("sessions without a view: code %d body %q", code, body)
	}
}

func TestStartServesLoopback(t *testing.T) {
	reg := obs.NewRegistry()
	srv := New(reg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() == "" {
		t.Fatal("no bound address")
	}
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "# TYPE") {
		t.Errorf("metrics body: %q", body)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Error("server still reachable after Close")
	}
}

// TestShutdownGraceful is the clean-exit contract behind the CLIs'
// signal handlers: Shutdown lets an in-flight request finish, refuses
// new connections, frees the port (no leaked listener on 127.0.0.1:0),
// and is safe to call again — or before Start at all.
func TestShutdownGraceful(t *testing.T) {
	if err := New(nil).Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown before Start: %v", err)
	}

	reg := obs.NewRegistry()
	srv := New(reg)
	// A slow sessions view holds one request in flight across Shutdown.
	release := make(chan struct{})
	inFlight := make(chan struct{})
	var once sync.Once
	srv.SetSessions(func() any {
		once.Do(func() { close(inFlight); <-release })
		return map[string]int{"ok": 1}
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	type result struct {
		code int
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/debug/obs/sessions")
		if err != nil {
			got <- result{0, err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got <- result{resp.StatusCode, nil}
	}()
	<-inFlight

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	// Shutdown must wait for the in-flight request; release it and both
	// the request and the drain must complete cleanly.
	close(release)
	r := <-got
	if r.err != nil || r.code != 200 {
		t.Fatalf("in-flight request during Shutdown: code %d err %v", r.code, r.err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The listener is gone: new requests fail and the exact port is
	// immediately bindable again (nothing leaked).
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still reachable after Shutdown")
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port not released after Shutdown: %v", err)
	}
	lis.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// parsePromLine sanity-checks the exposition syntax of every sample
// line: `name{labels} value` or `name value`, value numeric.
func TestMetricsExpositionParses(t *testing.T) {
	reg := obs.NewRegistry()
	reg.CounterVec(obs.MAnalyses, "mode", "corner").
		With("Best case", "TT").Inc()
	reg.HistogramVec(obs.MQueueWait, obs.DurationBounds, "mode").
		With("Iterative").Observe(0.01)
	srv := New(reg)
	_, body, _ := get(t, srv.Handler(), "/metrics")
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("no value separator in %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unbalanced label braces in %q", line)
			}
			name = name[:i]
		}
		if name == "" {
			t.Fatalf("empty metric name in %q", line)
		}
	}
}
