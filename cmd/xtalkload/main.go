// Command xtalkload is the load generator for the xtalkstad timing
// daemon: concurrent workers drive analyze queries (mixed modes and
// corners) while a writer streams ECO edit batches through the same
// design, and the client-side latency distribution is measured exactly
// — every request timed, percentiles from the sorted samples, not
// bucket interpolation.
//
// Usage:
//
//	xtalkload -cells 300 -duration 3s -concurrency 8         # self-hosted
//	xtalkload -addr 127.0.0.1:8080 -design main -duration 5s # against a daemon
//	xtalkload -cells 300 -json load.json                     # report to a file
//
// Without -addr it spins up an in-process server.Server on a loopback
// port and hammers it over real HTTP, so the numbers include the full
// serving stack (mux, admission, coalescing, JSON).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xtalksta"
	"xtalksta/internal/circuitgen"
	"xtalksta/internal/obs"
	"xtalksta/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "xtalkload:", err)
		os.Exit(1)
	}
}

// loadReport is the -json measurement: the client-observed latency
// percentiles and throughput of the daemon under concurrent read/edit
// traffic, plus the server-side counters that explain them.
type loadReport struct {
	DurationS    float64 `json:"duration_s"`
	Concurrency  int     `json:"concurrency"`
	Requests     int64   `json:"requests"`
	Errors       int64   `json:"errors"`
	Shed         int64   `json:"shed"`
	EditBatches  int64   `json:"edit_batches"`
	CoalesceHits int64   `json:"coalesce_hits"`
	CacheHits    int64   `json:"result_cache_hits"`
	Throughput   float64 `json:"throughput_rps"`
	AnalyzeP50Ms float64 `json:"analyze_p50_ms"`
	AnalyzeP90Ms float64 `json:"analyze_p90_ms"`
	AnalyzeP99Ms float64 `json:"analyze_p99_ms"`
}

func run() error {
	var (
		addr   = flag.String("addr", "", "daemon address to load (empty = self-host an in-process server)")
		design = flag.String("design", "main", "design id to query")

		preset = flag.String("preset", "", "self-hosted design: paper preset")
		scale  = flag.Float64("scale", 0.02, "self-hosted design: preset scale")
		cells  = flag.Int("cells", 300, "self-hosted design: synthetic cell count (ignored with -preset)")
		dffs   = flag.Int("dffs", 0, "self-hosted design: flip-flop count (default cells/10)")
		depth  = flag.Int("depth", 8, "self-hosted design: logic depth")
		seed   = flag.Int64("seed", 1, "self-hosted design: generator seed")

		maxInFlight = flag.Int("max-inflight", 0, "self-hosted server: concurrent request slots")
		maxQueue    = flag.Int("max-queue", 0, "self-hosted server: queue bound")
		workers     = flag.Int("workers", 0, "self-hosted server: per-analysis worker goroutines")

		duration     = flag.Duration("duration", 3*time.Second, "load duration")
		concurrency  = flag.Int("concurrency", 8, "concurrent reader goroutines")
		editInterval = flag.Duration("edit-interval", 250*time.Millisecond, "writer edit-batch cadence (0 = no edits)")
		mix          = flag.String("mix", "iterative,best,worst", "comma-separated analysis modes cycled by readers")
		timeoutMs    = flag.Int("timeout-ms", 3000, "per-request timeout_ms sent to the server")

		jsonPath = flag.String("json", "", "write the measurement as JSON to this file (- or empty = stdout)")
	)
	flag.Parse()

	base := *addr
	if base == "" {
		srv, err := selfHost(*preset, *scale, *cells, *dffs, *depth, *seed,
			*design, *maxInFlight, *maxQueue, *workers)
		if err != nil {
			return err
		}
		defer srv.Close()
		base = srv.Addr()
		fmt.Fprintf(os.Stderr, "xtalkload: self-hosted server on http://%s\n", base)
	}
	base = "http://" + strings.TrimPrefix(base, "http://")

	modes := strings.Split(*mix, ",")
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns: *concurrency * 2, MaxIdleConnsPerHost: *concurrency * 2,
	}}

	// Warm the design (first analysis characterizes the cell library)
	// and fetch coupled pairs for the writer's edit batches.
	if code, body, err := post(client, base+"/v1/designs/"+*design+"/analyze",
		map[string]any{"mode": modes[0], "timeout_ms": 60000}); err != nil || code != 200 {
		return fmt.Errorf("warmup analyze: code %d err %v body %s", code, err, body)
	}
	pairs, err := fetchPairs(client, base, *design)
	if err != nil {
		return err
	}

	before, err := scrapeCounters(client, base)
	if err != nil {
		return err
	}

	// The measured window: concurrent readers cycling the mode mix, one
	// writer streaming edit batches on its own cadence.
	deadline := time.Now().Add(*duration)
	var (
		wg       sync.WaitGroup
		requests atomic.Int64
		errors   atomic.Int64
		shedAck  atomic.Int64
		samples  = make([][]float64, *concurrency)
	)
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []float64
			for i := 0; time.Now().Before(deadline); i++ {
				body := map[string]any{
					"mode":       modes[(w+i)%len(modes)],
					"timeout_ms": *timeoutMs,
				}
				t0 := time.Now()
				code, _, err := post(client, base+"/v1/designs/"+*design+"/analyze", body)
				lat := time.Since(t0)
				requests.Add(1)
				switch {
				case err != nil || code >= 500 && code != 503:
					errors.Add(1)
				case code == 429 || code == 503:
					shedAck.Add(1)
				case code == 200:
					mine = append(mine, lat.Seconds())
				default:
					errors.Add(1)
				}
			}
			samples[w] = mine
		}(w)
	}
	if *editInterval > 0 && len(pairs) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(*editInterval)
			defer tick.Stop()
			for i := 0; time.Now().Before(deadline); i++ {
				select {
				case <-tick.C:
				case <-time.After(time.Until(deadline)):
					return
				}
				p := pairs[i%len(pairs)]
				factor := 1.02
				if i%2 == 1 {
					factor = 1 / 1.02 // keep the design bounded over long runs
				}
				code, body, err := post(client, base+"/v1/designs/"+*design+"/edit", map[string]any{
					"edits":      []any{xtalksta.ScaleCoupling(p.a, p.b, factor)},
					"timeout_ms": *timeoutMs,
				})
				requests.Add(1)
				if err != nil || (code != 200 && code != 429 && code != 503) {
					errors.Add(1)
					fmt.Fprintf(os.Stderr, "xtalkload: edit failed: code %d err %v body %s\n", code, err, body)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := *duration

	after, err := scrapeCounters(client, base)
	if err != nil {
		return err
	}

	var all []float64
	for _, s := range samples {
		all = append(all, s...)
	}
	sort.Float64s(all)
	rep := loadReport{
		DurationS:    elapsed.Seconds(),
		Concurrency:  *concurrency,
		Requests:     requests.Load(),
		Errors:       errors.Load(),
		Shed:         counterDelta(before, after, obs.MServerShed),
		EditBatches:  counterDelta(before, after, obs.MServerEditBatches),
		CoalesceHits: counterDelta(before, after, obs.MServerCoalesceHits),
		CacheHits:    counterDelta(before, after, obs.MServerResultCacheHits),
		Throughput:   float64(len(all)) / elapsed.Seconds(),
		AnalyzeP50Ms: percentile(all, 0.50) * 1e3,
		AnalyzeP90Ms: percentile(all, 0.90) * 1e3,
		AnalyzeP99Ms: percentile(all, 0.99) * 1e3,
	}
	if rep.Errors > 0 {
		return fmt.Errorf("%d requests errored (of %d)", rep.Errors, rep.Requests)
	}
	if len(all) == 0 {
		return fmt.Errorf("no successful analyze requests in the window")
	}

	fmt.Fprintf(os.Stderr,
		"xtalkload: %d requests in %v (%.0f ok/s), latency p50 %.2f ms p90 %.2f ms p99 %.2f ms\n",
		rep.Requests, elapsed, rep.Throughput,
		rep.AnalyzeP50Ms, rep.AnalyzeP90Ms, rep.AnalyzeP99Ms)
	fmt.Fprintf(os.Stderr,
		"xtalkload: %d shed, %d coalesce hits, %d cache hits, %d edit batches\n",
		rep.Shed, rep.CoalesceHits, rep.CacheHits, rep.EditBatches)

	if *jsonPath == "" || *jsonPath == "-" {
		return writeReport(os.Stdout, rep)
	}
	f, err := os.Create(*jsonPath)
	if err != nil {
		return err
	}
	if err := writeReport(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeReport(w io.Writer, rep loadReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// selfHost builds a design and serves it from an in-process server on a
// loopback port.
func selfHost(preset string, scale float64, cells, dffs, depth int, seed int64, id string, maxInFlight, maxQueue, workers int) (*server.Server, error) {
	reg := obs.NewRegistry()
	bopts := xtalksta.Defaults()
	bopts.Layout.Metrics = reg
	bopts.Calc.Metrics = reg
	var (
		d     *xtalksta.Design
		title string
		err   error
	)
	if preset != "" {
		d, err = xtalksta.GeneratePreset(xtalksta.Preset(strings.ToLower(preset)), scale, bopts)
		title = fmt.Sprintf("%s (scale %.2f)", preset, scale)
	} else {
		if dffs <= 0 {
			dffs = cells / 10
		}
		d, err = xtalksta.Generate(circuitgen.Params{
			Seed: seed, Cells: cells, DFFs: dffs, Depth: depth, ClockFanout: 8,
		}, bopts)
		title = fmt.Sprintf("synthetic %d cells (seed %d)", cells, seed)
	}
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		Registry: reg, MaxInFlight: maxInFlight, MaxQueue: maxQueue, Workers: workers,
	})
	if err := srv.Register(id, title, d); err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return srv, nil
}

func post(client *http.Client, url string, body any) (int, []byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

type pair struct{ a, b string }

// fetchPairs asks the server for coupled net pairs — the writer's edit
// targets — over the same API any remote client would use.
func fetchPairs(client *http.Client, base, design string) ([]pair, error) {
	resp, err := client.Get(base + "/v1/designs/" + design + "?pairs=16")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("GET design %s: status %d", design, resp.StatusCode)
	}
	var body struct {
		CoupledPairs []struct {
			A string `json:"a"`
			B string `json:"b"`
		} `json:"coupled_pairs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	out := make([]pair, 0, len(body.CoupledPairs))
	for _, p := range body.CoupledPairs {
		out = append(out, pair{p.A, p.B})
	}
	return out, nil
}

// scrapeCounters reads the flat counter map of /debug/obs/snapshot.
func scrapeCounters(client *http.Client, base string) (map[string]int64, error) {
	resp, err := client.Get(base + "/debug/obs/snapshot")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var dump struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		return nil, err
	}
	return dump.Counters, nil
}

// counterDelta sums the before→after movement of every series of one
// counter family (labeled series flatten to `name{...}` keys).
func counterDelta(before, after map[string]int64, family string) int64 {
	var d int64
	for k, v := range after {
		if k == family || strings.HasPrefix(k, family+"{") {
			d += v - before[k]
		}
	}
	return d
}

// percentile is the nearest-rank percentile of a sorted sample set —
// exact, not bucket-interpolated.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
