// Package liberty builds and evaluates precharacterized timing
// libraries: the per-arc stage simulations of the circuit-level
// calculator are run once over a grid of input slews, output loads and
// coupling ratios, and stored in NLDM-style lookup tables. The STA can
// then run from trilinear interpolation alone — the classic
// library-based flow, with an ablation benchmark comparing its accuracy
// against the circuit-level reference.
//
// The on-disk format (see format.go) is a Liberty-flavored text syntax.
package liberty

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"xtalksta/internal/ccc"
	"xtalksta/internal/delaycalc"
	"xtalksta/internal/device"
	"xtalksta/internal/netlist"
	"xtalksta/internal/waveform"
)

// ArcClass identifies one characterized timing arc.
type ArcClass struct {
	Kind netlist.GateKind
	NIn  int
	Pin  int
	Dir  waveform.Direction
}

// String renders e.g. "NAND3/2/fall".
func (a ArcClass) String() string {
	return fmt.Sprintf("%s%d/%d/%s", a.Kind, a.NIn, a.Pin, a.Dir)
}

// ArcTable holds the characterized surfaces of one arc class over
// (slew, load, coupling-ratio). Values are indexed [si][li][ri].
type ArcTable struct {
	Slews  []float64 // ascending
	Loads  []float64 // ascending, total grounded+coupling capacitance
	Ratios []float64 // ascending, CCouple / total

	Delay      [][][]float64
	OutSlew    [][][]float64
	Restart    [][][]float64 // TimeToRestart
	Completion [][][]float64
}

// Config drives characterization.
type Config struct {
	// Slews, Loads, Ratios are the grid axes. Zero-value selects a
	// practical default grid.
	Slews  []float64
	Loads  []float64
	Ratios []float64
	// MaxNIn bounds the characterized stack depth (default 4).
	MaxNIn int
	// Workers parallelizes characterization (default NumCPU via 8).
	Workers int
}

func (c Config) withDefaults() Config {
	if len(c.Slews) == 0 {
		c.Slews = []float64{50e-12, 120e-12, 250e-12, 500e-12, 1e-9, 2e-9}
	}
	if len(c.Loads) == 0 {
		c.Loads = []float64{5e-15, 15e-15, 40e-15, 100e-15, 250e-15, 600e-15}
	}
	if len(c.Ratios) == 0 {
		c.Ratios = []float64{0, 0.25, 0.5, 0.75}
	}
	if c.MaxNIn == 0 {
		c.MaxNIn = 4
	}
	if c.Workers == 0 {
		c.Workers = 8
	}
	sort.Float64s(c.Slews)
	sort.Float64s(c.Loads)
	sort.Float64s(c.Ratios)
	return c
}

// Library is a characterized timing library; it implements
// delaycalc.InfoEvaluator.
type Library struct {
	Name   string
	proc   device.Process
	sizing ccc.Sizing
	tables map[ArcClass]*ArcTable
}

// Proc implements delaycalc.Evaluator.
func (l *Library) Proc() device.Process { return l.proc }

// Siz implements delaycalc.Evaluator.
func (l *Library) Siz() ccc.Sizing { return l.sizing }

// ClearCache implements delaycalc.Evaluator (no-op; the tables ARE the
// cache).
func (l *Library) ClearCache() {}

// Classes returns the characterized arc classes, sorted.
func (l *Library) Classes() []ArcClass {
	out := make([]ArcClass, 0, len(l.tables))
	for k := range l.tables {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// allClasses enumerates the primitive library's arcs.
func allClasses(maxNIn int) []ArcClass {
	var out []ArcClass
	for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
		out = append(out, ArcClass{netlist.INV, 1, 0, dir})
		for _, kind := range []netlist.GateKind{netlist.NAND, netlist.NOR} {
			for nin := 2; nin <= maxNIn; nin++ {
				for pin := 0; pin < nin; pin++ {
					out = append(out, ArcClass{kind, nin, pin, dir})
				}
			}
		}
	}
	return out
}

// Characterize runs the circuit-level calculator over the grid and
// builds the library. SizeMult 1 only: clock buffers fall back to the
// circuit-level calculator in mixed flows.
func Characterize(name string, calc *delaycalc.Calculator, cfg Config) (*Library, error) {
	cfg = cfg.withDefaults()
	lib := &Library{
		Name:   name,
		proc:   calc.Proc(),
		sizing: calc.Siz(),
		tables: make(map[ArcClass]*ArcTable),
	}
	classes := allClasses(cfg.MaxNIn)
	type job struct {
		class      ArcClass
		si, li, ri int
	}
	var jobs []job
	for _, class := range classes {
		t := &ArcTable{
			Slews:  append([]float64(nil), cfg.Slews...),
			Loads:  append([]float64(nil), cfg.Loads...),
			Ratios: append([]float64(nil), cfg.Ratios...),
		}
		alloc := func() [][][]float64 {
			out := make([][][]float64, len(cfg.Slews))
			for i := range out {
				out[i] = make([][]float64, len(cfg.Loads))
				for j := range out[i] {
					out[i][j] = make([]float64, len(cfg.Ratios))
				}
			}
			return out
		}
		t.Delay, t.OutSlew, t.Restart, t.Completion = alloc(), alloc(), alloc(), alloc()
		lib.tables[class] = t
		for si := range cfg.Slews {
			for li := range cfg.Loads {
				for ri := range cfg.Ratios {
					jobs = append(jobs, job{class, si, li, ri})
				}
			}
		}
	}
	var next int64 = -1
	var wg sync.WaitGroup
	errs := make([]error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&next, 1)
				if i >= int64(len(jobs)) {
					return
				}
				j := jobs[i]
				t := lib.tables[j.class]
				total := t.Loads[j.li]
				cc := total * t.Ratios[j.ri]
				res, err := calc.Eval(delaycalc.Request{
					Kind: j.class.Kind, NIn: j.class.NIn, Pin: j.class.Pin, Dir: j.class.Dir,
					InSlew: t.Slews[j.si], CLoad: total - cc, CCouple: cc, SizeMult: 1,
				})
				if err != nil {
					errs[w] = fmt.Errorf("liberty: characterizing %s at slew %g load %g ratio %g: %w",
						j.class, t.Slews[j.si], t.Loads[j.li], t.Ratios[j.ri], err)
					return
				}
				t.Delay[j.si][j.li][j.ri] = res.Delay
				t.OutSlew[j.si][j.li][j.ri] = res.OutSlew
				t.Restart[j.si][j.li][j.ri] = res.TimeToRestart
				t.Completion[j.si][j.li][j.ri] = res.Completion
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return lib, nil
}

// axisPos finds the bracketing indices and interpolation fraction for v
// on ascending axis, clamping outside the range.
func axisPos(axis []float64, v float64) (int, float64) {
	n := len(axis)
	if n == 1 || v <= axis[0] {
		return 0, 0
	}
	if v >= axis[n-1] {
		return n - 2, 1
	}
	i := sort.SearchFloat64s(axis, v)
	if i > 0 && axis[i] > v {
		i--
	}
	if i > n-2 {
		i = n - 2
	}
	f := (v - axis[i]) / (axis[i+1] - axis[i])
	return i, f
}

// lookup trilinearly interpolates one surface.
func (t *ArcTable) lookup(surface [][][]float64, slew, load, ratio float64) float64 {
	si, sf := axisPos(t.Slews, slew)
	li, lf := axisPos(t.Loads, load)
	ri, rf := axisPos(t.Ratios, ratio)
	riHi := ri + 1
	if riHi > len(t.Ratios)-1 {
		riHi = ri
		rf = 0
	}
	acc := 0.0
	for _, c := range [...]struct {
		i, j, k int
		w       float64
	}{
		{si, li, ri, (1 - sf) * (1 - lf) * (1 - rf)},
		{si, li, riHi, (1 - sf) * (1 - lf) * rf},
		{si, li + 1, ri, (1 - sf) * lf * (1 - rf)},
		{si, li + 1, riHi, (1 - sf) * lf * rf},
		{si + 1, li, ri, sf * (1 - lf) * (1 - rf)},
		{si + 1, li, riHi, sf * (1 - lf) * rf},
		{si + 1, li + 1, ri, sf * lf * (1 - rf)},
		{si + 1, li + 1, riHi, sf * lf * rf},
	} {
		acc += surface[c.i][c.j][c.k] * c.w
	}
	return acc
}

// Eval implements delaycalc.Evaluator by table lookup. Requests the LUT
// cannot represent (π-model wires, scaled cells) are rejected so the
// caller can fall back to the circuit-level calculator.
func (l *Library) Eval(r delaycalc.Request) (delaycalc.Result, error) {
	if r.RWire > 0 || r.CFar > 0 {
		return delaycalc.Result{}, fmt.Errorf("liberty: π-model arcs are not characterized")
	}
	if r.SizeMult > 1.01 || (r.SizeMult > 0 && r.SizeMult < 0.99) {
		return delaycalc.Result{}, fmt.Errorf("liberty: size multiplier %g not characterized", r.SizeMult)
	}
	class := ArcClass{Kind: r.Kind, NIn: r.NIn, Pin: r.Pin, Dir: r.Dir}
	t, ok := l.tables[class]
	if !ok {
		return delaycalc.Result{}, fmt.Errorf("liberty: arc class %s not in library", class)
	}
	total := r.CLoad + r.CCouple
	ratio := 0.0
	if total > 0 {
		ratio = r.CCouple / total
	}
	res := delaycalc.Result{
		Delay:         t.lookup(t.Delay, r.InSlew, total, ratio),
		OutSlew:       t.lookup(t.OutSlew, r.InSlew, total, ratio),
		TimeToRestart: t.lookup(t.Restart, r.InSlew, total, ratio),
		Completion:    t.lookup(t.Completion, r.InSlew, total, ratio),
		EventTime:     math.NaN(),
	}
	return res, nil
}

// EvalInfo implements delaycalc.InfoEvaluator: a lookup is one request
// and never simulates; a rejected request did no work, so it is counted
// by whichever evaluator serves it.
func (l *Library) EvalInfo(r delaycalc.Request) (delaycalc.Result, delaycalc.Info, error) {
	res, err := l.Eval(r)
	if err != nil {
		return res, delaycalc.Info{}, err
	}
	return res, delaycalc.Info{Requests: 1}, nil
}

var _ delaycalc.InfoEvaluator = (*Library)(nil)

// Validate probes every characterized arc class at cell midpoints of
// the grid and compares the interpolated delay against a fresh
// circuit-level simulation, returning the worst relative error — the
// library qualification step of a characterization flow.
func (l *Library) Validate(calc *delaycalc.Calculator) (worstRel float64, probes int, err error) {
	for class, t := range l.tables {
		if len(t.Slews) < 2 || len(t.Loads) < 2 {
			continue
		}
		// One midpoint probe per class keeps validation affordable.
		slew := (t.Slews[0] + t.Slews[1]) / 2
		load := (t.Loads[len(t.Loads)-2] + t.Loads[len(t.Loads)-1]) / 2
		ratio := 0.0
		if len(t.Ratios) >= 2 {
			ratio = (t.Ratios[0] + t.Ratios[1]) / 2
		}
		req := delaycalc.Request{
			Kind: class.Kind, NIn: class.NIn, Pin: class.Pin, Dir: class.Dir,
			InSlew: slew, CLoad: load * (1 - ratio), CCouple: load * ratio, SizeMult: 1,
		}
		want, err := calc.Eval(req)
		if err != nil {
			return 0, probes, fmt.Errorf("liberty: validate %s: %w", class, err)
		}
		got, err := l.Eval(req)
		if err != nil {
			return 0, probes, fmt.Errorf("liberty: validate %s: %w", class, err)
		}
		if want.Delay > 0 {
			if rel := math.Abs(got.Delay-want.Delay) / want.Delay; rel > worstRel {
				worstRel = rel
			}
		}
		probes++
	}
	return worstRel, probes, nil
}

// Fallback chains two evaluators: requests the primary rejects go to
// the secondary (LUT first, circuit-level calculator for clock buffers
// and π-model arcs).
type Fallback struct {
	Primary, Secondary delaycalc.InfoEvaluator
}

// Eval implements delaycalc.Evaluator.
func (f *Fallback) Eval(r delaycalc.Request) (delaycalc.Result, error) {
	res, _, err := f.EvalInfo(r)
	return res, err
}

// EvalInfo implements delaycalc.InfoEvaluator: the work is that of the
// evaluator that served the request (a rejection costs none).
func (f *Fallback) EvalInfo(r delaycalc.Request) (delaycalc.Result, delaycalc.Info, error) {
	if res, info, err := f.Primary.EvalInfo(r); err == nil {
		return res, info, nil
	}
	return f.Secondary.EvalInfo(r)
}

// ClearCache implements delaycalc.Evaluator.
func (f *Fallback) ClearCache() { f.Primary.ClearCache(); f.Secondary.ClearCache() }

// Proc implements delaycalc.Evaluator.
func (f *Fallback) Proc() device.Process { return f.Secondary.Proc() }

// Siz implements delaycalc.Evaluator.
func (f *Fallback) Siz() ccc.Sizing { return f.Secondary.Siz() }

var _ delaycalc.InfoEvaluator = (*Fallback)(nil)
