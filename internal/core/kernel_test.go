package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dfggen"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/kernels"
)

// kernelGain scores one candidate through the production step kernel by
// closing every other node's slot in the open set; the trajectory's
// marked set is restored afterwards.
func kernelGain(t *testing.T, tr *trajectory, v int) float64 {
	t.Helper()
	saved := tr.marked.Clone()
	tr.marked.Reset()
	for u := 0; u < tr.st.n; u++ {
		if u != v {
			tr.marked.Set(u)
		}
	}
	got, g := tr.selectBestGain()
	tr.marked.CopyFrom(saved)
	if got != v {
		t.Fatalf("kernel picked %d with only node %d open", got, v)
	}
	return g
}

// wideKernelBlock returns dfggen blocks large enough to span several
// 64-bit words, so the kernel's word-wise scan crosses word boundaries
// and masks a partial last word.
func wideKernelBlock(seed int64) *ir.Block {
	p := dfggen.DefaultParams()
	p.MinNodes, p.MaxNodes = 60, 150
	return dfggen.Block(dfggen.Seeded(seed), p)
}

// TestKernelGainMatchesReference pins the fused step kernel candidate by
// candidate: after every random toggle, each open node's kernel gain must
// be bit-identical to the reference gain over probeRef with a rebuilt
// component table. The trajectory pins compare only argmax decisions,
// which a slightly wrong term can leave unchanged. A random marked subset
// exercises the open-set mask, and the kernel's argmax over it must be the
// lowest-ID maximum of the reference gains.
func TestKernelGainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	cfg := DefaultConfig()
	for trial := 0; trial < 20; trial++ {
		var blk *ir.Block
		if trial%2 == 0 {
			blk = randKernelBlock(rng, 10+rng.Intn(50))
		} else {
			blk = wideKernelBlock(int64(trial))
		}
		excluded := graph.NewBitSet(blk.N())
		for v := 0; v < blk.N(); v++ {
			if rng.Intn(8) == 0 {
				excluded.Set(v)
			}
		}
		st := NewState(blk, cfg.Model, excluded)
		kern := &trajectory{cfg: &cfg, st: st, marked: graph.NewBitSet(blk.N())}
		ref := &trajectory{cfg: &cfg, st: st}
		var free []int
		for v := 0; v < blk.N(); v++ {
			if !st.Frozen.Has(v) {
				free = append(free, v)
			}
		}
		if len(free) == 0 {
			continue
		}
		for step := 0; step < 2*len(free); step++ {
			v := free[rng.Intn(len(free))]
			st.Toggle(v)
			kern.gc.noteToggle(st, v)
			ref.gc.rebuild(st)
			ref.prepareGainContext()
			want := make([]float64, blk.N())
			for _, u := range free {
				want[u] = ref.gain(u, probeRef(st, u))
				if g := kernelGain(t, kern, u); math.Float64bits(g) != math.Float64bits(want[u]) {
					t.Fatalf("%s trial %d step %d (toggle %d): kernel gain(%d) %v vs reference %v",
						blk.Name, trial, step, v, u, g, want[u])
				}
			}
			kern.marked.Reset()
			for _, u := range free {
				if rng.Intn(3) == 0 {
					kern.marked.Set(u)
				}
			}
			wantBest, wantGain := -1, 0.0
			for _, u := range free {
				if !kern.marked.Has(u) && (wantBest < 0 || want[u] > wantGain) {
					wantBest, wantGain = u, want[u]
				}
			}
			if got, g := kern.selectBestGain(); got != wantBest || (got >= 0 && g != wantGain) {
				t.Fatalf("%s trial %d step %d: kernel argmax (%d, %v) vs reference (%d, %v)",
					blk.Name, trial, step, got, g, wantBest, wantGain)
			}
		}
	}
}

// assertConeUnions requires below/above to equal {aCnt>0}/{dCnt>0} and the
// violator set to equal its definition.
func assertConeUnions(t *testing.T, name string, st *State) {
	t.Helper()
	for x := 0; x < st.n; x++ {
		if st.below.Has(x) != (st.aCnt[x] > 0) || st.above.Has(x) != (st.dCnt[x] > 0) {
			t.Fatalf("%s: node %d below=%v above=%v vs aCnt=%d dCnt=%d",
				name, x, st.below.Has(x), st.above.Has(x), st.aCnt[x], st.dCnt[x])
		}
		if isViol := !st.H.Has(x) && st.aCnt[x] > 0 && st.dCnt[x] > 0; st.viol.Has(x) != isViol {
			t.Fatalf("%s: node %d viol=%v, want %v", name, x, st.viol.Has(x), isViol)
		}
	}
	if st.nviol != st.viol.Count() {
		t.Fatalf("%s: nviol %d vs |viol| %d", name, st.nviol, st.viol.Count())
	}
}

// TestConeUnionMatchesCounters pins the cone unions the kernel's witness
// counts read: over random Toggle/SetCut sequences on AES block 0 and on
// generated blocks with frozen sets, below and above must equal
// {aCnt>0} and {dCnt>0} after every mutation.
func TestConeUnionMatchesCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	cfg := DefaultConfig()
	type tcase struct {
		name     string
		blk      *ir.Block
		excluded *graph.BitSet
		steps    int
	}
	aes := kernels.AES().Blocks[0]
	cases := []tcase{{"aes", aes, nil, 300}}
	for seed := int64(1); seed <= 20; seed++ {
		blk := wideKernelBlock(9000 + seed)
		if seed%2 == 0 {
			blk = dfggen.Block(dfggen.Seeded(9000+seed), dfggen.DefaultParams())
		}
		excluded := graph.NewBitSet(blk.N())
		for v := 0; v < blk.N(); v++ {
			if rng.Intn(5) == 0 {
				excluded.Set(v)
			}
		}
		cases = append(cases, tcase{fmt.Sprintf("dfggen %d", seed), blk, excluded, 6 * blk.N()})
	}
	for _, c := range cases {
		st := NewState(c.blk, cfg.Model, c.excluded)
		var free []int
		for v := 0; v < c.blk.N(); v++ {
			if !st.Frozen.Has(v) {
				free = append(free, v)
			}
		}
		if len(free) == 0 {
			continue
		}
		assertConeUnions(t, c.name, st)
		for step := 0; step < c.steps; step++ {
			if step%23 == 22 {
				cut := graph.NewBitSet(c.blk.N())
				for _, u := range free {
					if rng.Intn(4) == 0 {
						cut.Set(u)
					}
				}
				st.SetCut(cut)
			} else {
				st.Toggle(free[rng.Intn(len(free))])
			}
			assertConeUnions(t, fmt.Sprintf("%s step %d", c.name, step), st)
		}
	}
}

// TestGrowthTermsMatchBarrierDistances pins the precomputed α4 terms the
// kernel reads against their definition over the barrier distances.
func TestGrowthTermsMatchBarrierDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultConfig()
	blocks := []*ir.Block{kernels.AES().Blocks[0]}
	for i := 0; i < 20; i++ {
		blocks = append(blocks, randKernelBlock(rng, 3+rng.Intn(60)))
	}
	for _, blk := range blocks {
		st := NewState(blk, cfg.Model, nil)
		up, down := blk.DAG().BarrierDistances(blk.ForbiddenInCut)
		maxDist := 0
		for v := range up {
			if up[v] > maxDist {
				maxDist = up[v]
			}
			if down[v] > maxDist {
				maxDist = down[v]
			}
		}
		if maxDist == 0 {
			maxDist = 1
		}
		for v := range up {
			dmin := up[v]
			if down[v] < dmin {
				dmin = down[v]
			}
			want := (float64(maxDist) - float64(dmin)) / float64(maxDist)
			if st.growth[v] != want {
				t.Fatalf("%s node %d: growth %v, want %v", blk.Name, v, st.growth[v], want)
			}
		}
	}
}
