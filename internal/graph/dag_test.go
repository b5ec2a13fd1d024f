package graph

import (
	"math/rand"
	"testing"
)

// diamond builds the 4-node DAG 0->1, 0->2, 1->3, 2->3.
func diamond(t *testing.T) *DAG {
	t.Helper()
	g := NewDAG(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	if err := g.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	return g
}

// randDAG builds a random DAG: edges only go from lower to higher IDs, so it
// is acyclic by construction.
func randDAG(rng *rand.Rand, n int, p float64) *DAG {
	g := NewDAG(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	g.MustFreeze()
	return g
}

func TestDAGTopoOrder(t *testing.T) {
	g := diamond(t)
	pos := make(map[int]int)
	for i, v := range g.Topo() {
		pos[v] = i
		if g.TopoPos(v) != i {
			t.Errorf("TopoPos(%d) = %d, want %d", v, g.TopoPos(v), i)
		}
	}
	for v := 0; v < g.N(); v++ {
		for _, s := range g.Succs(v) {
			if pos[v] >= pos[s] {
				t.Errorf("edge %d->%d violates topological order", v, s)
			}
		}
	}
}

func TestDAGCycleDetection(t *testing.T) {
	g := NewDAG(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	if err := g.Freeze(); err != ErrCycle {
		t.Fatalf("Freeze = %v, want ErrCycle", err)
	}
}

func TestDAGDuplicateEdgeIgnored(t *testing.T) {
	g := NewDAG(2)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	if got := g.NumEdges(); got != 1 {
		t.Fatalf("NumEdges = %d, want 1", got)
	}
	if len(g.Preds(1)) != 1 {
		t.Fatalf("Preds(1) = %v, want one element", g.Preds(1))
	}
}

func TestDAGReachability(t *testing.T) {
	g := diamond(t)
	cases := []struct {
		a, b int
		want bool
	}{
		{0, 3, true}, {0, 1, true}, {0, 2, true},
		{1, 3, true}, {2, 3, true},
		{3, 0, false}, {1, 2, false}, {2, 1, false},
	}
	for _, c := range cases {
		if got := g.Reaches(c.a, c.b); got != c.want {
			t.Errorf("Reaches(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if !g.Desc(0).Has(3) || !g.Anc(3).Has(0) {
		t.Error("Desc/Anc bitsets inconsistent with Reaches")
	}
	if g.Desc(0).Has(0) {
		t.Error("a node must not be its own descendant")
	}
}

// Property: reachability bitsets agree with DFS on random DAGs.
func TestDAGReachabilityMatchesDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(40)
		g := randDAG(rng, n, 0.15)
		for a := 0; a < n; a++ {
			seen := make([]bool, n)
			stack := []int{a}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, s := range g.Succs(v) {
					if !seen[s] {
						seen[s] = true
						stack = append(stack, s)
					}
				}
			}
			for b := 0; b < n; b++ {
				if b == a {
					continue
				}
				if g.Reaches(a, b) != seen[b] {
					t.Fatalf("trial %d: Reaches(%d,%d) = %v, DFS says %v",
						trial, a, b, g.Reaches(a, b), seen[b])
				}
			}
		}
	}
}

func TestIsConvex(t *testing.T) {
	g := diamond(t)
	cut := NewBitSet(4)
	cut.Set(0)
	cut.Set(3)
	if g.IsConvex(cut) {
		t.Error("cut {0,3} is not convex (path 0->1->3 leaves and re-enters)")
	}
	viol := g.ConvexViolators(cut)
	if len(viol) != 2 {
		t.Errorf("ConvexViolators = %v, want {1,2}", viol)
	}
	cut.Set(1)
	cut.Set(2)
	if !g.IsConvex(cut) {
		t.Error("full cut must be convex")
	}
	if v := g.ConvexViolators(cut); len(v) != 0 {
		t.Errorf("full cut violators = %v, want none", v)
	}
	empty := NewBitSet(4)
	if !g.IsConvex(empty) {
		t.Error("empty cut must be convex")
	}
	single := NewBitSet(4)
	single.Set(1)
	if !g.IsConvex(single) {
		t.Error("singleton cut must be convex")
	}
}

// Property: IsConvex (the word-wise cone union) agrees with the definition
// checked node by node, and with ConvexViolators, on random DAGs that fit
// one word (2-19 nodes) and on DAGs spanning several words (65-300 nodes).
// Cuts are drawn three ways — random subsets, a few scattered nodes, and
// the closed interval between two related nodes with one member possibly
// dropped — so both verdicts occur at every size.
func TestIsConvexMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var convex, nonConvex [2]int // indexed by multi-word
	for trial := 0; trial < 400; trial++ {
		multi := trial%2 == 1
		n := 2 + rng.Intn(18)
		p := 0.25
		if multi {
			n = 65 + rng.Intn(236)
			p = 3 / float64(n)
		}
		g := randDAG(rng, n, p)
		cut := NewBitSet(n)
		switch trial / 2 % 3 {
		case 0:
			density := 0.4
			if multi {
				density = 0.05 * rng.Float64()
			}
			for v := 0; v < n; v++ {
				if rng.Float64() < density {
					cut.Set(v)
				}
			}
		case 1:
			for k := 1 + rng.Intn(4); k > 0; k-- {
				cut.Set(rng.Intn(n))
			}
		case 2:
			// {u, w} plus every node on a path between them: convex, unless
			// the coin below drops an interior member.
			u := rng.Intn(n)
			cut.Set(u)
			if d := g.Desc(u); !d.Empty() {
				elems := d.Elems()
				w := elems[rng.Intn(len(elems))]
				cut.Set(w)
				between := d.Clone()
				between.And(g.Anc(w))
				cut.Or(between)
				if mid := between.Elems(); len(mid) > 0 && rng.Intn(2) == 0 {
					cut.Clear(mid[rng.Intn(len(mid))])
				}
			}
		}
		// Definition: convex iff for no outside node x, anc(x)∩C and desc(x)∩C
		// are both non-empty.
		want := true
		for x := 0; x < n && want; x++ {
			if cut.Has(x) {
				continue
			}
			if g.Anc(x).Intersects(cut) && g.Desc(x).Intersects(cut) {
				want = false
			}
		}
		got := g.IsConvex(cut)
		if got != want {
			t.Fatalf("trial %d (n=%d): IsConvex = %v, want %v (cut %v)", trial, n, got, want, cut)
		}
		if viol := g.ConvexViolators(cut); got != (len(viol) == 0) {
			t.Fatalf("trial %d (n=%d): IsConvex = %v but ConvexViolators = %v", trial, n, got, viol)
		}
		m := 0
		if multi {
			m = 1
		}
		if got {
			convex[m]++
		} else {
			nonConvex[m]++
		}
	}
	for m, name := range []string{"one-word", "multi-word"} {
		if convex[m] < 20 || nonConvex[m] < 20 {
			t.Errorf("%s DAGs: %d convex and %d non-convex cuts; the generator must exercise both verdicts", name, convex[m], nonConvex[m])
		}
	}
}

// IsConvex runs inside the reuse matcher's accept step, once per completed
// mapping, so it must not allocate.
func TestIsConvexAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randDAG(rng, 300, 0.01)
	cut := NewBitSet(300)
	for v := 0; v < 300; v += 7 {
		cut.Set(v)
	}
	if allocs := testing.AllocsPerRun(100, func() { g.IsConvex(cut) }); allocs != 0 {
		t.Fatalf("IsConvex allocates %.1f times per call, want 0", allocs)
	}
}

func TestComponentsOf(t *testing.T) {
	// 0->1  2->3  4 isolated; set includes all but 3.
	g := NewDAG(5)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	g.MustFreeze()
	set := NewBitSet(5)
	for _, v := range []int{0, 1, 2, 4} {
		set.Set(v)
	}
	comps := g.ComponentsOf(set)
	if len(comps) != 3 {
		t.Fatalf("got %d components %v, want 3", len(comps), comps)
	}
	want := [][]int{{0, 1}, {2}, {4}}
	for i := range want {
		if len(comps[i]) != len(want[i]) {
			t.Fatalf("components = %v, want %v", comps, want)
		}
		for j := range want[i] {
			if comps[i][j] != want[i][j] {
				t.Fatalf("components = %v, want %v", comps, want)
			}
		}
	}
}

func TestComponentsUsesUndirectedConnectivity(t *testing.T) {
	// 0->2 and 1->2: weakly connected through 2.
	g := NewDAG(3)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.MustFreeze()
	set := NewBitSet(3)
	set.Set(0)
	set.Set(1)
	set.Set(2)
	if comps := g.ComponentsOf(set); len(comps) != 1 {
		t.Fatalf("got %d components, want 1 (weak connectivity)", len(comps))
	}
	// Remove the join node: 0 and 1 become separate components.
	set.Clear(2)
	if comps := g.ComponentsOf(set); len(comps) != 2 {
		t.Fatalf("got %d components after removing join, want 2", len(comps))
	}
}

func TestLongestPath(t *testing.T) {
	g := diamond(t)
	all := NewBitSet(4)
	for v := 0; v < 4; v++ {
		all.Set(v)
	}
	w := func(v int) float64 { return 1.0 }
	ending, crit := g.LongestPath(all, w)
	if crit != 3 {
		t.Errorf("critical path = %v, want 3", crit)
	}
	if ending[3] != 3 || ending[0] != 1 {
		t.Errorf("ending = %v, want ending[3]=3, ending[0]=1", ending)
	}
	// Restrict to {1,3}: path 1->3 length 2.
	sub := NewBitSet(4)
	sub.Set(1)
	sub.Set(3)
	_, crit = g.LongestPath(sub, w)
	if crit != 2 {
		t.Errorf("critical path of {1,3} = %v, want 2", crit)
	}
	// Disconnected {1,2}: two singleton paths.
	sub2 := NewBitSet(4)
	sub2.Set(1)
	sub2.Set(2)
	_, crit = g.LongestPath(sub2, w)
	if crit != 1 {
		t.Errorf("critical path of {1,2} = %v, want 1", crit)
	}
}

func TestLongestPathWeighted(t *testing.T) {
	g := NewDAG(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.MustFreeze()
	all := NewBitSet(3)
	for v := 0; v < 3; v++ {
		all.Set(v)
	}
	weights := []float64{0.5, 1.0, 0.25}
	_, crit := g.LongestPath(all, func(v int) float64 { return weights[v] })
	if want := 1.75; crit != want {
		t.Errorf("critical path = %v, want %v", crit, want)
	}
}

func TestBarrierDistances(t *testing.T) {
	// Chain 0->1->2->3 with node 2 a barrier.
	g := NewDAG(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.MustFreeze()
	up, down := g.BarrierDistances(func(v int) bool { return v == 2 })
	// Upward: 0 touches the top boundary (1); 1: min(up[0]+1=2) = 2;
	// 2 is a barrier (0); 3: up[2]+1 = 1.
	wantUp := []int{1, 2, 0, 1}
	// Downward: 3 touches the bottom boundary (1); 2 barrier (0);
	// 1: down[2]+1 = 1; 0: down[1]+1 = 2.
	wantDown := []int{2, 1, 0, 1}
	for v := range wantUp {
		if up[v] != wantUp[v] {
			t.Errorf("up[%d] = %d, want %d", v, up[v], wantUp[v])
		}
		if down[v] != wantDown[v] {
			t.Errorf("down[%d] = %d, want %d", v, down[v], wantDown[v])
		}
	}
}

func TestBarrierDistancesNoBarriers(t *testing.T) {
	g := diamond(t)
	up, down := g.BarrierDistances(func(int) bool { return false })
	// Node 0 is a graph input: up = 1. Node 3 is a graph output: down = 1.
	if up[0] != 1 || down[3] != 1 {
		t.Errorf("boundary distances wrong: up[0]=%d down[3]=%d", up[0], down[3])
	}
	if up[3] != 3 {
		t.Errorf("up[3] = %d, want 3 (0 is two hops above plus boundary)", up[3])
	}
	if down[0] != 3 {
		t.Errorf("down[0] = %d, want 3", down[0])
	}
}

func TestFreezeIdempotent(t *testing.T) {
	g := diamond(t)
	if err := g.Freeze(); err != nil {
		t.Fatalf("second Freeze: %v", err)
	}
}

func TestAddEdgeAfterFreezePanics(t *testing.T) {
	g := diamond(t)
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge after Freeze should panic")
		}
	}()
	g.AddEdge(0, 3)
}

func BenchmarkFreezeReachability(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < b.N; i++ {
		g := NewDAG(256)
		for x := 0; x < 256; x++ {
			for k := 0; k < 4; k++ {
				y := x + 1 + rng.Intn(255-x+1)
				if y < 256 {
					g.AddEdge(x, y)
				}
			}
		}
		g.MustFreeze()
	}
}
