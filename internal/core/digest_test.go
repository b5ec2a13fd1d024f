package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// TestProbeDigestMatchesFresh pins the cached Probe against probeRef, the
// uncached reference: one state replays a random toggle/SetCut sequence,
// and after every step each node's Probe must be bit-for-bit identical to
// probeRef on the same State. Probing every node after every mutation is
// exactly the K-L access pattern, so this exercises hits,
// invalidation-driven misses and the version guard together.
func TestProbeDigestMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(99080620))
	cfg := DefaultConfig()
	for trial := 0; trial < 25; trial++ {
		blk := randKernelBlock(rng, 10+rng.Intn(50))
		st := NewState(blk, cfg.Model, nil)
		var free []int
		for v := 0; v < blk.N(); v++ {
			if !st.Frozen.Has(v) {
				free = append(free, v)
			}
		}
		if len(free) == 0 {
			continue
		}
		for step := 0; step < 3*len(free); step++ {
			v := free[rng.Intn(len(free))]
			st.Toggle(v)
			for u := 0; u < blk.N(); u++ {
				ce, fe := st.Probe(u), probeRef(st, u)
				if ce != fe {
					t.Fatalf("%s trial %d step %d (toggle %d): Probe(%d) %+v cached vs %+v fresh",
						blk.Name, trial, step, v, u, ce, fe)
				}
			}
			// Occasionally jump to an unrelated cut so SetCut-driven
			// invalidation is in the loop; the jump itself must land on
			// the oracle's counts.
			if step%17 == 13 {
				cut := graph.NewBitSet(blk.N())
				for _, u := range free {
					if rng.Intn(3) == 0 {
						cut.Set(u)
					}
				}
				st.SetCut(cut)
				verifyAgainstReference(t, st)
			}
		}
		if st.gainHits == 0 {
			t.Fatalf("%s trial %d: probe cache never hit", blk.Name, trial)
		}
	}
}

// TestProbeCacheServesRepeatedProbes checks the cache actually caches: a
// second full probe sweep with no intervening mutation must be all hits.
func TestProbeCacheServesRepeatedProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultConfig()
	blk := randKernelBlock(rng, 40)
	st := NewState(blk, cfg.Model, nil)
	for v := 0; v < blk.N(); v++ {
		if !st.Frozen.Has(v) {
			st.Toggle(v)
			break
		}
	}
	for u := 0; u < blk.N(); u++ {
		st.Probe(u)
	}
	misses := st.gainMisses
	for u := 0; u < blk.N(); u++ {
		st.Probe(u)
	}
	if st.gainMisses != misses {
		t.Fatalf("second sweep recomputed %d digests, want 0", st.gainMisses-misses)
	}
	if st.gainHits < int64(blk.N()) {
		t.Fatalf("second sweep hit %d times, want at least %d", st.gainHits, blk.N())
	}
}
