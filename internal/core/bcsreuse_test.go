package core

import (
	"testing"

	"xtalksta/internal/obs"
)

// TestBCSReuseWorkerParity: the reuse and zero-coupling skips must be
// deterministic — identical simulation and request counts, and an
// identical longest path, for any worker count — and the refinement
// passes must actually hit the stored best-case results.
func TestBCSReuseWorkerParity(t *testing.T) {
	type outcome struct {
		longest     float64
		reqs, sims  int64
		skips, hits int64
	}
	var base *outcome
	for _, workers := range []int{1, 4, 16} {
		c, calc := buildExtracted(t, 200, 16, 8, 813)
		reg := obs.NewRegistry()
		res := runMode(t, c, calc, Options{Mode: Iterative, Workers: workers, Metrics: reg})
		reqs, sims := calc.Stats()
		got := outcome{
			longest: res.LongestPath,
			reqs:    reqs,
			sims:    sims,
			skips:   reg.Counter(obs.MCouplingZeroSkips).Value(),
			hits:    reg.Counter(obs.MTBCSReuseHits).Value(),
		}
		if got.hits <= 0 {
			t.Errorf("workers=%d: iterative run recorded no t_bcs reuse hits", workers)
		}
		if base == nil {
			b := got
			base = &b
			continue
		}
		if got != *base {
			t.Errorf("workers=%d diverges from workers=1:\n  got  %+v\n  want %+v", workers, got, *base)
		}
	}
}
