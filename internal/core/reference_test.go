package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// The from-scratch reference the incremental paths are pinned against.
// Nothing in probeRef or refTrajectory reads the probe-digest cache, the
// cone unions, the slot-maintained component table or the incremental
// critical-path labels' history: probeRef scans the State's counters
// directly, and refTrajectory re-derives every label with SetCut's full
// relabel sweep and a component rebuild on every step. Probe is the
// term-by-term recombination of the production digest cache, so the
// cache's contents can be pinned against probeRef node by node.

// ToggleEffect is the predicted outcome of toggling one node, computed
// without mutating the state. Critical-path predictions for removals of
// critical nodes are conservative upper bounds: the current hwCP is
// returned, and the exact value is restored when the toggle commits.
type ToggleEffect struct {
	NumIn, NumOut int
	Convex        bool
	SWSum         int
	HWCP          float64
}

// Probe predicts the effect of toggling v from the cached probe digest,
// rebuilding the entry on a miss exactly as the step kernel does, and
// recombining it with the global scalars (numIn/numOut, swSum, nviol,
// hwCP) by the kernel's reads. It must equal probeRef bit for bit.
func (s *State) Probe(v int) ToggleEffect {
	adding := !s.H.Has(v)
	s.prepareDigests()
	d := &s.digest[v]
	if s.digestValid.Has(v) {
		s.gainHits++
	} else {
		s.gainMisses++
		s.computeDigest(v, adding, d)
		s.digestValid.Set(v)
	}
	var eff ToggleEffect
	eff.NumIn = s.numIn + d.dIn
	eff.NumOut = s.numOut + d.dOut
	if adding {
		eff.SWSum = s.swSum + s.swLat[v]
		base := s.nviol
		if s.viol.Has(v) {
			base--
		}
		eff.Convex = base <= 0 && d.pDescCnt == 0 && d.qAncCnt == 0
		eff.HWCP = math.Max(s.hwCP, d.levelIn+s.hwLat[v]+d.tailOut)
	} else {
		eff.SWSum = s.swSum - s.swLat[v]
		eff.Convex = !(s.aCnt[v] > 0 && s.dCnt[v] > 0) && d.fixCnt == s.nviol
		eff.HWCP = s.hwCP
	}
	return eff
}

// probeRef is the uncached Probe: the full I/O replay, convexity scan and
// critical-path query. computeDigest derives the cached entries from the
// same expressions, so cached probes must match it bit for bit.
func probeRef(s *State, v int) ToggleEffect {
	adding := !s.H.Has(v)
	var eff ToggleEffect
	eff.NumIn, eff.NumOut = s.ioAfter(v, adding)
	eff.Convex = s.convexAfter(v, adding)
	if adding {
		eff.SWSum = s.swSum + s.swLat[v]
	} else {
		eff.SWSum = s.swSum - s.swLat[v]
	}
	eff.HWCP = s.cpAfter(v, adding)
	return eff
}

// convexAfter reports whether the cut is convex after toggling v.
func (s *State) convexAfter(v int, adding bool) bool {
	dag := s.Blk.DAG()
	if adding {
		// Adding can only remove v itself from the violator set and
		// create violators among v's ancestors/descendants.
		base := s.nviol
		if s.viol.Has(v) {
			base--
		}
		if base > 0 {
			return false
		}
		found := false
		dag.Desc(v).ForEach(func(x int) bool {
			if x != v && !s.H.Has(x) && s.aCnt[x] == 0 && s.dCnt[x] > 0 {
				found = true
				return false
			}
			return true
		})
		if found {
			return false
		}
		dag.Anc(v).ForEach(func(x int) bool {
			if x != v && !s.H.Has(x) && s.dCnt[x] == 0 && s.aCnt[x] > 0 {
				found = true
				return false
			}
			return true
		})
		return !found
	}
	// Removing v: v may become a violator; existing violators may be fixed.
	if s.aCnt[v] > 0 && s.dCnt[v] > 0 {
		return false
	}
	ok := true
	desc, anc := dag.Desc(v), dag.Anc(v)
	s.viol.ForEach(func(x int) bool {
		fixed := (desc.Has(x) && s.aCnt[x] == 1) || (anc.Has(x) && s.dCnt[x] == 1)
		if !fixed {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// cpAfter predicts the hardware critical path after toggling v. Additions
// are exact: the only new paths run through v. Removals are exact when v is
// not on a critical path; otherwise the current value is returned as a
// conservative upper bound and the exact value is restored on commit.
func (s *State) cpAfter(v int, adding bool) float64 {
	dag := s.Blk.DAG()
	if adding {
		levelIn, tailOut := 0.0, 0.0
		for _, p := range dag.Preds(v) {
			if s.H.Has(p) && s.level[p] > levelIn {
				levelIn = s.level[p]
			}
		}
		for _, c := range dag.Succs(v) {
			if s.H.Has(c) && s.tail[c] > tailOut {
				tailOut = s.tail[c]
			}
		}
		through := levelIn + s.hwLat[v] + tailOut
		return math.Max(s.hwCP, through)
	}
	// Removing a node not on any critical path leaves hwCP unchanged
	// (exact). For a critical node the true value is lower; returning the
	// current hwCP is a conservative upper bound, corrected on commit.
	return s.hwCP
}

// gain is the reference Section 4.2 gain of toggling node v against the
// current partition, given eff, the predicted effect of that toggle: the
// term-by-term form the production step kernel (selectBestGain) fuses
// with the digest recombination. The kernel keeps this float term order,
// so the two agree bit for bit (TestKernelGainMatchesReference).
//
//	Gain(v) = α1·M(C') − α2·Vio(C') + α3·Cv(v) + α4·L(v) + α5·I(v)
func (t *trajectory) gain(v int, eff ToggleEffect) float64 {
	st := t.st
	w := t.cfg.Weights
	adding := !st.H.Has(v)

	// α1: merit of the new cut, only meaningful when convex. The true
	// merit counts whole AFU cycles; a small fraction of the raw delay
	// slack is added as a tie-breaker so the search keeps a gradient
	// inside plateaus where the integer merit does not move.
	m := 0.0
	if eff.Convex {
		m = MeritOf(eff.SWSum, eff.HWCP) + 0.01*(float64(eff.SWSum)-eff.HWCP)
	}

	// α2: I/O port violation of the new cut.
	vio := 0.0
	if over := eff.NumIn - t.cfg.MaxIn; over > 0 {
		vio += float64(over)
	}
	if over := eff.NumOut - t.cfg.MaxOut; over > 0 {
		vio += float64(over)
	}

	// α3: neighbours already in the cut — an O(1) read off the state's
	// incrementally maintained neighbour counts.
	cv := float64(st.nbrH[v])
	if !adding {
		cv = -cv
	}

	// α4: directional growth — favour nodes close to a barrier so the
	// cut grows from the barrier frontier outward (this is what makes
	// the identified cuts line up with the repeated structures an expert
	// would pick; see DESIGN.md §4). The per-node term is fixed for the
	// block (TestGrowthTermsMatchBarrierDistances).
	l := st.growth[v]
	if !adding {
		l = -l * 0.5 // removing a frontier node is mildly resisted
	}

	// α5: independent subgraphs — a cut node may move back to software
	// when other components are large, freeing ports for them.
	ind := 0.0
	if !adding {
		if ci := t.gc.compOf[v]; ci >= 0 {
			ind = (t.gc.totalCP - t.gc.compCP[ci]) / (1 + t.gc.totalCP)
		}
	}

	return w.Merit*m - w.IOPenalty*vio + w.Convexity*cv + w.LargeCut*l + w.Independent*ind
}

// refTrajectory is Engine.TrajectoryContext re-derived from scratch at
// every step. It follows klLoop's pass and snapshot rules exactly, but drives a
// private State only through SetCut (always the full relabel sweep),
// rebuilds the α5 component table before every selection, and scores each
// candidate with gain(v, probeRef(st, v)).
func refTrajectory(e *Engine, start *graph.BitSet) []Candidate {
	st := NewState(e.blk, e.cfg.Model, e.excluded)
	t := &trajectory{cfg: &e.cfg, st: st}
	feasible := func() bool { return st.Feasible(e.cfg.MaxIn, e.cfg.MaxOut) }

	var snaps []Candidate
	best := start.Clone()
	bestMerit := 0.0
	st.SetCut(best)
	if feasible() {
		bestMerit = st.Merit()
		if bestMerit > 0 {
			snaps = append(snaps, Candidate{best.Clone(), bestMerit})
		}
	}
	marked := graph.NewBitSet(st.n)
	for pass := 0; pass < e.cfg.MaxPasses; pass++ {
		st.SetCut(best)
		marked.Reset()
		var curBest *graph.BitSet
		curBestMerit := bestMerit
		for {
			t.gc.rebuild(st)
			t.prepareGainContext()
			v, bestGain := -1, 0.0
			for u := 0; u < st.n; u++ {
				if marked.Has(u) || st.Frozen.Has(u) {
					continue
				}
				if g := t.gain(u, probeRef(st, u)); v < 0 || g > bestGain {
					v, bestGain = u, g
				}
			}
			if v < 0 {
				break
			}
			next := st.Cut()
			next.Flip(v)
			st.SetCut(next)
			marked.Set(v)
			if feasible() {
				if m := st.Merit(); m > curBestMerit {
					curBestMerit = m
					curBest = st.Cut()
					if m > 0 {
						snaps = append(snaps, Candidate{st.Cut(), m})
					}
				}
			}
		}
		if curBest == nil {
			break // no improvement this pass: converged
		}
		best, bestMerit = curBest, curBestMerit
	}
	return snaps
}

// TestReferenceProbeMatchesMetricsOf anchors probeRef to the MetricsOf
// oracle, closing the chain kernel ≡ probeRef ≡ oracle: over random toggle
// sequences, probeRef(st, v) must predict H△{v} exactly on ports,
// software latency and convexity, exactly (up to float association) on
// the critical path of an addition, and as an upper bound on the critical
// path of a removal.
func TestReferenceProbeMatchesMetricsOf(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	cfg := DefaultConfig()
	for trial := 0; trial < 25; trial++ {
		blk := randKernelBlock(rng, 3+rng.Intn(40))
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
			for _, v := range free {
				eff := probeRef(st, v)
				cut := st.Cut()
				adding := cut.Flip(v)
				m := MetricsOf(blk, cfg.Model, cut)
				if eff.NumIn != m.NumIn || eff.NumOut != m.NumOut || eff.SWSum != m.SWLat || eff.Convex != m.Convex() {
					t.Fatalf("%s step %d toggle %d (adding=%v): probeRef (in %d, out %d, sw %d, convex %v) vs oracle (%d, %d, %d, %v)",
						blk.Name, step, v, adding, eff.NumIn, eff.NumOut, eff.SWSum, eff.Convex,
						m.NumIn, m.NumOut, m.SWLat, m.Convex())
				}
				if adding && math.Abs(eff.HWCP-m.HWLat) > 1e-9 {
					t.Fatalf("%s step %d toggle %d: probeRef HWCP %v vs oracle %v on addition", blk.Name, step, v, eff.HWCP, m.HWLat)
				}
				if !adding && eff.HWCP < m.HWLat-1e-9 {
					t.Fatalf("%s step %d toggle %d: probeRef HWCP %v below oracle %v on removal (must be an upper bound)",
						blk.Name, step, v, eff.HWCP, m.HWLat)
				}
			}
			st.Toggle(free[rng.Intn(len(free))])
		}
	}
}
