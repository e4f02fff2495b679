package delaycalc

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"xtalksta/internal/ccc"
	"xtalksta/internal/coupling"
	"xtalksta/internal/device"
	"xtalksta/internal/netlist"
	"xtalksta/internal/waveform"
)

func newCalc(t *testing.T, opts Options) *Calculator {
	t.Helper()
	p := device.Generic05um()
	lib := device.NewLibrary(p, 0)
	m, err := coupling.NewModel(p.VDD, p.VthModel)
	if err != nil {
		t.Fatal(err)
	}
	return New(lib, ccc.DefaultSizing(p), m, opts)
}

func baseReq() Request {
	return Request{
		Kind: netlist.INV, NIn: 1, Pin: 0,
		Dir:    waveform.Rising,
		InSlew: 0.3e-9,
		CLoad:  60e-15,
	}
}

func TestInverterArcBothDirs(t *testing.T) {
	c := newCalc(t, Options{})
	for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
		r := baseReq()
		r.Dir = dir
		res, err := c.Eval(r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delay <= 0 || res.Delay > 3e-9 {
			t.Errorf("%s delay = %v, implausible", dir, res.Delay)
		}
		if res.OutSlew <= 0 || res.OutSlew > 5e-9 {
			t.Errorf("%s out slew = %v", dir, res.OutSlew)
		}
		if res.Completion < res.Delay {
			t.Errorf("%s completion %v before 50%% point %v", dir, res.Completion, res.Delay)
		}
		if !math.IsNaN(res.EventTime) {
			t.Errorf("%s: event fired without coupling", dir)
		}
	}
}

func TestTimeToRestartBeforeDelay(t *testing.T) {
	// For a rising output, the 0.2 V crossing comes well before the
	// 1.65 V crossing.
	c := newCalc(t, Options{})
	res, err := c.Eval(baseReq())
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeToRestart >= res.Delay {
		t.Errorf("t_restart %v must precede 50%% delay %v", res.TimeToRestart, res.Delay)
	}
}

func TestCouplingEventAddsDelay(t *testing.T) {
	c := newCalc(t, Options{DisableCache: true})
	for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
		base := baseReq()
		base.Dir = dir
		noCpl, err := c.Eval(base)
		if err != nil {
			t.Fatal(err)
		}
		// Same total capacitance, but 40% of it actively coupling.
		cpl := base
		cpl.CCouple = 0.4 * base.CLoad
		cpl.CLoad = 0.6 * base.CLoad
		withCpl, err := c.Eval(cpl)
		if err != nil {
			t.Fatal(err)
		}
		if withCpl.Delay <= noCpl.Delay {
			t.Errorf("%s: coupling must add delay: %v vs %v", dir, withCpl.Delay, noCpl.Delay)
		}
		if math.IsNaN(withCpl.EventTime) {
			t.Errorf("%s: coupling event did not fire", dir)
		}
	}
}

func TestMoreCouplingMoreDelay(t *testing.T) {
	c := newCalc(t, Options{DisableCache: true})
	prev := -1.0
	for _, frac := range []float64{0, 0.2, 0.4, 0.6} {
		r := baseReq()
		total := r.CLoad
		r.CCouple = frac * total
		r.CLoad = total - r.CCouple
		res, err := c.Eval(r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delay <= prev {
			t.Errorf("coupling fraction %v: delay %v not larger than previous %v", frac, res.Delay, prev)
		}
		prev = res.Delay
	}
}

func TestStaticDoubledVsActiveCoupling(t *testing.T) {
	// The paper's key claim (§6): grounding the coupling cap with
	// doubled value underestimates the worst case of the active model.
	c := newCalc(t, Options{DisableCache: true})
	total := 60e-15
	ccap := 0.5 * total

	doubled := baseReq()
	doubled.CLoad = (total - ccap) + 2*ccap
	resDoubled, err := c.Eval(doubled)
	if err != nil {
		t.Fatal(err)
	}

	active := baseReq()
	active.CLoad = total - ccap
	active.CCouple = ccap
	resActive, err := c.Eval(active)
	if err != nil {
		t.Fatal(err)
	}
	if resActive.Delay <= resDoubled.Delay {
		t.Errorf("active coupling model (%v) must exceed static-doubled (%v) for strong coupling",
			resActive.Delay, resDoubled.Delay)
	}
}

func TestCacheHitsAndEquivalence(t *testing.T) {
	c := newCalc(t, Options{})
	r := baseReq()
	res1, err := c.Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := c.Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Delay != res2.Delay || res1.OutSlew != res2.OutSlew ||
		res1.TimeToRestart != res2.TimeToRestart || res1.Completion != res2.Completion {
		t.Error("identical requests must return the identical cached result")
	}
	req, sims := c.Stats()
	if req != 2 || sims != 1 {
		t.Errorf("stats: %d requests, %d sims; want 2/1", req, sims)
	}
	// A slightly different slew within the same bucket also hits.
	r2 := r
	r2.InSlew = r.InSlew * 1.01
	if _, err := c.Eval(r2); err != nil {
		t.Fatal(err)
	}
	_, sims = c.Stats()
	if sims != 1 {
		t.Errorf("nearby request should hit the cache, sims = %d", sims)
	}
}

func TestCacheQuantizationError(t *testing.T) {
	// Cached (quantized) results must stay within a few percent of the
	// exact simulation.
	exact := newCalc(t, Options{DisableCache: true})
	cached := newCalc(t, Options{})
	for _, slew := range []float64{0.15e-9, 0.42e-9} {
		for _, load := range []float64{25e-15, 110e-15} {
			r := baseReq()
			r.InSlew = slew
			r.CLoad = load
			re, err := exact.Eval(r)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := cached.Eval(r)
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(re.Delay-rc.Delay) / re.Delay; rel > 0.10 {
				t.Errorf("slew %v load %v: quantization error %v too large (%v vs %v)",
					slew, load, rel, re.Delay, rc.Delay)
			}
		}
	}
}

func TestNANDAndNORArcs(t *testing.T) {
	c := newCalc(t, Options{})
	for _, kind := range []netlist.GateKind{netlist.NAND, netlist.NOR} {
		for _, nin := range []int{2, 3, 4} {
			for pin := 0; pin < nin; pin++ {
				r := baseReq()
				r.Kind = kind
				r.NIn = nin
				r.Pin = pin
				res, err := c.Eval(r)
				if err != nil {
					t.Fatalf("%s%d pin %d: %v", kind, nin, pin, err)
				}
				if res.Delay <= 0 || res.Delay > 5e-9 {
					t.Errorf("%s%d pin %d: delay %v", kind, nin, pin, res.Delay)
				}
			}
		}
	}
}

// TestValidation: a malformed request is refused, naming what is wrong,
// before anything is counted, cached or bounded. NaN passes the sign
// checks and ±Inf has no cache bucket, so every float field is also
// tried non-finite, with the cache on and off.
func TestValidation(t *testing.T) {
	type validationCase struct {
		name string
		set  func(r *Request)
		want string
	}
	cases := []validationCase{
		{"DFF arc", func(r *Request) { r.Kind = netlist.DFF }, "not a simulatable primitive"},
		{"zero slew", func(r *Request) { r.InSlew = 0 }, "non-positive input slew"},
		{"negative load", func(r *Request) { r.CLoad = -1 }, "negative load"},
	}
	for _, f := range []struct {
		name  string
		field func(r *Request) *float64
	}{
		{"InSlew", func(r *Request) *float64 { return &r.InSlew }},
		{"CLoad", func(r *Request) *float64 { return &r.CLoad }},
		{"CCouple", func(r *Request) *float64 { return &r.CCouple }},
		{"CFar", func(r *Request) *float64 { return &r.CFar }},
		{"RWire", func(r *Request) *float64 { return &r.RWire }},
		{"SizeMult", func(r *Request) *float64 { return &r.SizeMult }},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cases = append(cases, validationCase{
				fmt.Sprintf("%s=%g", f.name, v),
				func(r *Request) { *f.field(r) = v },
				"non-finite " + f.name,
			})
		}
	}
	for _, disable := range []bool{false, true} {
		c := newCalc(t, Options{DisableCache: disable})
		for _, tc := range cases {
			r := baseReq()
			tc.set(&r)
			if res, err := c.Eval(r); err == nil {
				t.Errorf("cache off=%v, %s: accepted, delay %g", disable, tc.name, res.Delay)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("cache off=%v, %s: error %q does not mention %q", disable, tc.name, err, tc.want)
			}
			if _, ok := c.Tier0Bounds(r); ok {
				t.Errorf("cache off=%v, %s: bounded", disable, tc.name)
			}
		}
		if req, sims := c.Stats(); req != 0 || sims != 0 {
			t.Errorf("cache off=%v: refused requests counted: %d requests, %d simulations", disable, req, sims)
		}
		if n := c.CacheEntries(); n != 0 {
			t.Errorf("cache off=%v: refused requests cached %d entries", disable, n)
		}
	}
}

func TestSlowerInputSlowerOutput(t *testing.T) {
	c := newCalc(t, Options{DisableCache: true})
	fast := baseReq()
	fast.InSlew = 0.1e-9
	slow := baseReq()
	slow.InSlew = 1.0e-9
	rf, err := c.Eval(fast)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.Eval(slow)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Delay <= rf.Delay {
		t.Errorf("slower input must increase delay: %v vs %v", rs.Delay, rf.Delay)
	}
}

func TestResetStats(t *testing.T) {
	c := newCalc(t, Options{})
	if _, err := c.Eval(baseReq()); err != nil {
		t.Fatal(err)
	}
	c.ResetStats()
	req, sims := c.Stats()
	if req != 0 || sims != 0 {
		t.Error("ResetStats did not clear counters")
	}
}

func BenchmarkEvalCacheMiss(b *testing.B) {
	p := device.Generic05um()
	lib := device.NewLibrary(p, 0)
	m, _ := coupling.NewModel(p.VDD, p.VthModel)
	c := New(lib, ccc.DefaultSizing(p), m, Options{DisableCache: true})
	r := baseReq()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Eval(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalCacheHit(b *testing.B) {
	p := device.Generic05um()
	lib := device.NewLibrary(p, 0)
	m, _ := coupling.NewModel(p.VDD, p.VthModel)
	c := New(lib, ccc.DefaultSizing(p), m, Options{})
	r := baseReq()
	if _, err := c.Eval(r); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Eval(r); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCachedServesOnlyUpToHorizon: Cached returns exactly the entries
// stored at or before the horizon it is given, counts each hit as one
// request and one cache hit, and counts nothing on a miss; it never
// simulates.
func TestCachedServesOnlyUpToHorizon(t *testing.T) {
	c := newCalc(t, Options{})
	r := baseReq()
	if h := c.Horizon(); h != 0 {
		t.Fatalf("empty cache: horizon %d, want 0", h)
	}
	if _, ok := c.Cached(r, 0); ok {
		t.Fatal("empty cache served a probe")
	}
	want, err := c.Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if h := c.Horizon(); h != 1 {
		t.Fatalf("one stored result: horizon %d, want 1", h)
	}
	before := c.Counters()
	if _, ok := c.Cached(r, 0); ok {
		t.Error("a probe at horizon 0 served an entry stored after it")
	}
	other := r
	other.CLoad *= 3 // another cache key
	if _, ok := c.Cached(other, c.Horizon()); ok {
		t.Error("a probe served a request that was never characterized")
	}
	if got := c.Counters(); got != before {
		t.Errorf("misses counted work: %+v, before %+v", got, before)
	}
	got, ok := c.Cached(r, c.Horizon())
	if !ok {
		t.Fatal("a probe at the current horizon missed a stored entry")
	}
	if got.Delay != want.Delay || got.OutSlew != want.OutSlew ||
		got.TimeToRestart != want.TimeToRestart || got.Completion != want.Completion {
		t.Errorf("probe served %+v, Eval %+v", got, want)
	}
	after := c.Counters()
	if d := after.Sub(before); d.Requests != 1 || d.CacheHits != 1 || d.Simulations != 0 || d.NewtonIterations != 0 {
		t.Errorf("a hit counted %+v, want one request and one cache hit", d)
	}
	if h := c.Horizon(); h != 1 {
		t.Errorf("probes moved the horizon to %d", h)
	}
	c.ClearCache()
	if h := c.Horizon(); h != 0 {
		t.Errorf("cleared cache: horizon %d, want 0", h)
	}
	if _, ok := c.Cached(r, 1); ok {
		t.Error("a cleared cache served a probe")
	}
	if _, ok := newCalc(t, Options{DisableCache: true}).Cached(r, math.MaxInt64); ok {
		t.Error("a calculator without a cache served a probe")
	}
}
