package xtalksta_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"xtalksta"
	"xtalksta/internal/incremental"
	"xtalksta/internal/obs"
)

var updateParity = flag.Bool("update-parity", false, "rewrite testdata/parity_bits.json from the current implementation")

// parityConfig is one cell of the refactor-parity matrix: a mode /
// worker-count / feature combination whose longest-path delay must stay
// Float64bits-identical across memory-layout changes.
type parityConfig struct {
	name string
	opts xtalksta.AnalysisOptions
	eco  bool // apply a coupling edit and Reanalyze, record the seeded result
	// ecoRandom re-analyzes parityRandomBatches random edit batches in a
	// chain and records the last seeded result.
	ecoRandom bool
	// warm first fills the calculator with an all-Newton run of the same
	// mode (its work is not recorded), so the recorded run re-analyzes
	// on a warm characterization cache.
	warm bool
}

// parityRandomBatches is the length of the ecoRandom chain; each batch
// holds 4 edits drawn from one rand.NewSource(1) stream.
const parityRandomBatches = 3

func parityMatrix() []parityConfig {
	cfgs := []parityConfig{}
	for _, m := range xtalksta.Modes() {
		cfgs = append(cfgs, parityConfig{
			name: fmt.Sprintf("%s/dataflow", m),
			opts: xtalksta.AnalysisOptions{Mode: m},
		})
	}
	cfgs = append(cfgs,
		parityConfig{name: "OneStep/dataflow-w2", opts: xtalksta.AnalysisOptions{
			Mode: xtalksta.OneStep, Workers: 2}},
		parityConfig{name: "Iterative/dataflow-w4", opts: xtalksta.AnalysisOptions{
			Mode: xtalksta.Iterative, Workers: 4}},
		parityConfig{name: "Iterative/tier0", opts: xtalksta.AnalysisOptions{
			Mode: xtalksta.Iterative, Tier0: true}},
		parityConfig{name: "Iterative/eco-seeded", opts: xtalksta.AnalysisOptions{
			Mode: xtalksta.Iterative}, eco: true},
		parityConfig{name: "Iterative/tier0-eco", opts: xtalksta.AnalysisOptions{
			Mode: xtalksta.Iterative, Tier0: true}, eco: true},
		parityConfig{name: "Iterative/eco-random-w2", opts: xtalksta.AnalysisOptions{
			Mode: xtalksta.Iterative, Workers: 2}, ecoRandom: true},
		parityConfig{name: "Iterative/tier0-warm-w2", opts: xtalksta.AnalysisOptions{
			Mode: xtalksta.Iterative, Tier0: true, Workers: 2}, warm: true},
	)
	return cfgs
}

var parityCircuits = []struct {
	preset xtalksta.Preset
	scale  float64
}{
	{xtalksta.S35932, 0.02},
	{xtalksta.S38417, 0.02},
}

// computeParityBits runs the full matrix and returns
// "preset/config" → IEEE-754 bits of the longest-path delay, plus
// "preset/config/state" → stateDigest of the same result and
// "preset/config/work" → workDigest of its work counts.
func computeParityBits(t *testing.T) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	for _, pc := range parityCircuits {
		for _, cfg := range parityMatrix() {
			d, err := xtalksta.GeneratePreset(pc.preset, pc.scale, xtalksta.Defaults())
			if err != nil {
				t.Fatalf("generate %s: %v", pc.preset, err)
			}
			if cfg.warm {
				if _, err := d.Analyze(xtalksta.AnalysisOptions{Mode: cfg.opts.Mode}); err != nil {
					t.Fatalf("%s/%s cold fill: %v", pc.preset, cfg.name, err)
				}
			}
			reg := obs.NewRegistry()
			opts := cfg.opts
			opts.Metrics = reg
			res, err := d.Analyze(opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", pc.preset, cfg.name, err)
			}
			final := res
			if cfg.eco {
				pairs := d.CoupledPairs(3)
				if len(pairs) == 0 {
					t.Fatalf("%s: no coupled pairs for the ECO leg", pc.preset)
				}
				edits := []xtalksta.Edit{xtalksta.ScaleCoupling(pairs[0].A, pairs[0].B, 1.75)}
				if len(pairs) > 2 {
					edits = append(edits, xtalksta.ScaleCoupling(pairs[2].A, pairs[2].B, 0.5))
				}
				final, err = d.Reanalyze(res, edits)
				if err != nil {
					t.Fatalf("%s/%s reanalyze: %v", pc.preset, cfg.name, err)
				}
			}
			if cfg.ecoRandom {
				final = parityRandomChain(t, d, res, fmt.Sprintf("%s/%s", pc.preset, cfg.name))
			}
			key := fmt.Sprintf("%s/%s", pc.preset, cfg.name)
			out[key] = math.Float64bits(final.LongestPath)
			out[key+"/state"] = stateDigest(t, key, final)
			out[key+"/work"] = workDigest(t, key, final, reg)
		}
	}
	return out
}

// parityRandomChain re-analyzes parityRandomBatches random 4-edit
// batches, each from the previous result, and returns the last. Every
// batch must recompute lines and evaluate arcs, so the leg pins the
// seeded sweep's work rather than an empty carry-over.
func parityRandomChain(t *testing.T, d *xtalksta.Design, res *xtalksta.AnalysisResult, key string) *xtalksta.AnalysisResult {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for b := 0; b < parityRandomBatches; b++ {
		batch := incremental.RandomBatch(d.Circuit, rng, 4)
		next, err := d.Reanalyze(res, batch)
		if err != nil {
			t.Fatalf("%s batch %d: %v", key, b, err)
		}
		if next.ECO == nil || next.ECO.DirtyLines <= 0 || next.ArcEvaluations <= 0 {
			t.Fatalf("%s batch %d (%v): seeded run recomputed nothing (ECO %+v, %d arc evaluations)",
				key, b, batch, next.ECO, next.ArcEvaluations)
		}
		t.Logf("%s batch %d: %d dirty lines, %d arc evaluations", key, b, next.ECO.DirtyLines, next.ArcEvaluations)
		res = next
	}
	return res
}

// workCounters are the engine registry counters workDigest pins: every
// work counter of the sweep, not the executor's worker and sequential
// cell counts, which depend on the worker count.
var workCounters = []string{
	obs.MArcEvaluations, obs.MSimulations, obs.MNewtonIters, obs.MNewtonFailures,
	obs.MCouplingActive, obs.MCouplingGrounded, obs.MCouplingZeroSkips, obs.MTBCSReuseHits,
	obs.MTier0Hits, obs.MTier0Fallbacks, obs.MTier0FlipGuards, obs.MTier0Reruns,
	obs.MPasses, obs.MRecalcWires, obs.MPassConvergedSkips,
	obs.MEcoEdits, obs.MEcoDirtyLines, obs.MEcoReusedLines, obs.MEcoConeExpansions, obs.MEcoFullFallbacks,
}

// workDigest is the FNV-1a 64-bit hash of the work a result reports:
// its Result work totals, every PassStat field but Wall, its ECO stats
// and the work counters of the registry attached to its runs (for an
// ECO leg, the full run and the seeded one). It pins the work a
// refactor must keep, not only the bits. The hashed values are logged
// so a mismatch shows which count moved.
func workDigest(t *testing.T, key string, res *xtalksta.AnalysisResult, reg *obs.Registry) uint64 {
	t.Helper()
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	vals := []int64{res.ArcEvaluations, res.Simulations, res.CacheHits,
		res.Tier0Hits, res.Tier0Fallbacks, res.Tier0FlipGuards, b2i(res.Tier0Rerun), int64(res.Passes)}
	for _, ps := range res.PassStats {
		vals = append(vals, int64(ps.Pass), int64(ps.Mode), ps.ArcEvaluations, ps.Simulations,
			ps.CacheHits, ps.NewtonIterations, ps.Tier0Hits, ps.RecalculatedWires, ps.ConvergedSkips,
			int64(math.Float64bits(ps.LongestPath)))
	}
	if e := res.ECO; e != nil {
		vals = append(vals, e.DirtyLines, e.ReusedLines, e.ConeExpansions, b2i(e.FullFallback))
	}
	counters := reg.Snapshot().Counters
	for _, name := range workCounters {
		vals = append(vals, counters[name])
	}
	t.Logf("%s/work: %v", key, vals)
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// stateDigest is the FNV-1a 64-bit hash of the Float64bits of every
// net's final arrival, slew and quiescent time (rise then fall, net
// order). It pins the whole final state, not only the longest path: a
// changed carry-over rule (delta refinement, ECO seeding) can move
// off-path arrivals while the longest path stays bit-equal.
func stateDigest(t *testing.T, key string, res *xtalksta.AnalysisResult) uint64 {
	t.Helper()
	if res.Replay == nil {
		t.Fatalf("%s: result carries no replay state", key)
	}
	arr, slew, quiet := res.Replay.FinalArrivals(), res.Replay.FinalSlews(), res.Replay.FinalQuiets()
	h := fnv.New64a()
	var buf [8]byte
	for i := range arr {
		for _, field := range [][2]float64{arr[i], slew[i], quiet[i]} {
			for _, v := range field {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// TestRefactorParity locks the longest-path delay of every analysis
// mode, sequential and parallel sweeps, tier-0 on/off and ECO-seeded
// re-analysis to the bit patterns recorded before the SoA/CSR
// memory-layout refactor (testdata/parity_bits.json), the whole
// final net state of each to its digest, and the work each reports to
// its work digest. Any drift in the first two means a refactor changed
// numerics, not just layout; in the third, that it dropped or
// double-counted work.
func TestRefactorParity(t *testing.T) {
	path := filepath.Join("testdata", "parity_bits.json")
	got := computeParityBits(t)
	if *updateParity {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make(map[string]string, len(got))
		for _, k := range keys {
			ordered[k] = fmt.Sprintf("%016x", got[k])
		}
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d parity entries to %s", len(got), path)
		return
	}
	want := loadParityFixture(t)
	if len(want) != len(got) {
		t.Errorf("fixture has %d entries, matrix produced %d", len(want), len(got))
	}
	for k, bits := range got {
		wantHex, ok := want[k]
		if !ok {
			t.Errorf("%s: missing from fixture", k)
			continue
		}
		gotHex := fmt.Sprintf("%016x", bits)
		if gotHex != wantHex {
			if strings.HasSuffix(k, "/state") {
				t.Errorf("%s: final-state digest %s, fixture %s", k, gotHex, wantHex)
				continue
			}
			if strings.HasSuffix(k, "/work") {
				t.Errorf("%s: work digest %s, fixture %s (hashed values in the log above)", k, gotHex, wantHex)
				continue
			}
			t.Errorf("%s: longest path bits %s, fixture %s (Float64 %v vs %v)",
				k, gotHex, wantHex, math.Float64frombits(bits), mustParseBits(t, wantHex))
		}
	}
}

// TestTier0PresetParity: tier-0 is a dispatch optimization, never a
// numeric change. Every mode on both parity presets, run the way
// AnalyzeAllOpts runs the paper table (cache cleared before each mode)
// with tier-0 on, must reproduce the fixture's all-Newton bits — and
// tier-0 must actually have skipped exact evaluations.
func TestTier0PresetParity(t *testing.T) {
	want := loadParityFixture(t)
	for _, pc := range parityCircuits {
		d, err := xtalksta.GeneratePreset(pc.preset, pc.scale, xtalksta.Defaults())
		if err != nil {
			t.Fatalf("generate %s: %v", pc.preset, err)
		}
		results, err := d.AnalyzeAllOpts(xtalksta.AnalysisOptions{Tier0: true})
		if err != nil {
			t.Fatalf("%s: %v", pc.preset, err)
		}
		for _, res := range results {
			key := fmt.Sprintf("%s/%s/dataflow", pc.preset, res.Mode)
			wantHex, ok := want[key]
			if !ok {
				t.Fatalf("%s: missing from fixture", key)
			}
			if gotHex := fmt.Sprintf("%016x", math.Float64bits(res.LongestPath)); gotHex != wantHex {
				t.Errorf("%s with tier-0: longest path bits %s, fixture %s", key, gotHex, wantHex)
			}
			if res.Tier0Hits <= 0 {
				t.Errorf("%s: tier-0 skipped no evaluations", key)
			}
		}
	}
}

// loadParityFixture reads testdata/parity_bits.json: "preset/config" →
// hex IEEE-754 bits of the longest-path delay, "preset/config/state" →
// hex stateDigest, "preset/config/work" → hex workDigest.
func loadParityFixture(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "parity_bits.json"))
	if err != nil {
		t.Fatalf("read golden fixture (regenerate with -update-parity ONLY from the pre-refactor tree): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

func mustParseBits(t *testing.T, hex string) float64 {
	t.Helper()
	var u uint64
	if _, err := fmt.Sscanf(hex, "%016x", &u); err != nil {
		t.Fatalf("bad fixture hex %q: %v", hex, err)
	}
	return math.Float64frombits(u)
}
