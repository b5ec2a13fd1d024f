package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitSetBasic(t *testing.T) {
	b := NewBitSet(130)
	if !b.Empty() {
		t.Fatal("new set should be empty")
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(129)
	if got := b.Count(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !b.Has(i) {
			t.Errorf("Has(%d) = false, want true", i)
		}
	}
	for _, i := range []int{1, 62, 65, 128} {
		if b.Has(i) {
			t.Errorf("Has(%d) = true, want false", i)
		}
	}
	b.Clear(63)
	if b.Has(63) {
		t.Error("Clear(63) did not remove 63")
	}
	if got := b.Count(); got != 3 {
		t.Fatalf("Count after Clear = %d, want 3", got)
	}
}

func TestBitSetFlip(t *testing.T) {
	b := NewBitSet(10)
	if !b.Flip(3) {
		t.Error("Flip(3) should report membership true")
	}
	if b.Flip(3) {
		t.Error("second Flip(3) should report membership false")
	}
	if !b.Empty() {
		t.Error("set should be empty after double flip")
	}
}

func TestBitSetSetOps(t *testing.T) {
	a := NewBitSet(100)
	b := NewBitSet(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	union := a.Clone()
	union.Or(b)
	inter := a.Clone()
	inter.And(b)
	diff := a.Clone()
	diff.AndNot(b)
	for i := 0; i < 100; i++ {
		even, trip := i%2 == 0, i%3 == 0
		if union.Has(i) != (even || trip) {
			t.Errorf("union.Has(%d) wrong", i)
		}
		if inter.Has(i) != (even && trip) {
			t.Errorf("inter.Has(%d) wrong", i)
		}
		if diff.Has(i) != (even && !trip) {
			t.Errorf("diff.Has(%d) wrong", i)
		}
	}
	if got, want := inter.Count(), a.IntersectCount(b); got != want {
		t.Errorf("IntersectCount = %d, want %d", want, got)
	}
	if !a.Intersects(b) {
		t.Error("a should intersect b (both contain 0)")
	}
	if !inter.SubsetOf(a) || !inter.SubsetOf(b) {
		t.Error("intersection must be a subset of both operands")
	}
	if diff.Intersects(b) {
		t.Error("a\\b must not intersect b")
	}
}

func TestBitSetEqualCloneCopy(t *testing.T) {
	a := NewBitSet(70)
	a.Set(5)
	a.Set(69)
	c := a.Clone()
	if !a.Equal(c) {
		t.Fatal("clone should equal original")
	}
	c.Set(6)
	if a.Equal(c) {
		t.Fatal("modified clone should differ")
	}
	d := NewBitSet(70)
	d.CopyFrom(a)
	if !d.Equal(a) {
		t.Fatal("CopyFrom should replicate contents")
	}
	e := NewBitSet(71)
	if a.Equal(e) {
		t.Fatal("different capacities should not be Equal")
	}
}

func TestBitSetForEachEarlyStop(t *testing.T) {
	b := NewBitSet(50)
	for i := 0; i < 50; i++ {
		b.Set(i)
	}
	seen := 0
	b.ForEach(func(i int) bool {
		seen++
		return seen < 7
	})
	if seen != 7 {
		t.Fatalf("early stop visited %d elements, want 7", seen)
	}
}

func TestBitSetElemsString(t *testing.T) {
	b := NewBitSet(20)
	b.Set(1)
	b.Set(4)
	b.Set(7)
	elems := b.Elems()
	want := []int{1, 4, 7}
	if len(elems) != len(want) {
		t.Fatalf("Elems = %v, want %v", elems, want)
	}
	for i := range want {
		if elems[i] != want[i] {
			t.Fatalf("Elems = %v, want %v", elems, want)
		}
	}
	if got := b.String(); got != "{1, 4, 7}" {
		t.Errorf("String = %q, want {1, 4, 7}", got)
	}
}

func TestBitSetReset(t *testing.T) {
	b := NewBitSet(128)
	for i := 0; i < 128; i += 5 {
		b.Set(i)
	}
	b.Reset()
	if !b.Empty() || b.Count() != 0 {
		t.Fatal("Reset should empty the set")
	}
}

// Property: Count equals the number of distinct inserted values.
func TestBitSetCountProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		b := NewBitSet(1 << 16)
		distinct := map[int]bool{}
		for _, v := range vals {
			b.Set(int(v))
			distinct[int(v)] = true
		}
		return b.Count() == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Complement holds exactly the values in [0, Cap()) the set lacks, and none
// past the capacity, at word boundaries and between them.
func TestBitSetComplement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 300} {
		b := NewBitSet(n)
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				b.Set(v)
			}
		}
		c := b.Complement()
		if c.Cap() != n {
			t.Fatalf("n=%d: Complement capacity %d", n, c.Cap())
		}
		for v := 0; v < n; v++ {
			if c.Has(v) == b.Has(v) {
				t.Fatalf("n=%d: Complement.Has(%d) = %v, set.Has = %v", n, v, c.Has(v), b.Has(v))
			}
		}
		if got := c.Count() + b.Count(); got != n {
			t.Fatalf("n=%d: |set| + |complement| = %d (bits past capacity set?)", n, got)
		}
	}
}

// Property: De Morgan on random sets: |A∪B| = |A| + |B| - |A∩B|.
func TestBitSetInclusionExclusionProperty(t *testing.T) {
	f := func(av, bv []uint8) bool {
		a, b := NewBitSet(256), NewBitSet(256)
		for _, v := range av {
			a.Set(int(v))
		}
		for _, v := range bv {
			b.Set(int(v))
		}
		u := a.Clone()
		u.Or(b)
		return u.Count() == a.Count()+b.Count()-a.IntersectCount(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitSetNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBitSet(-1) should panic")
		}
	}()
	NewBitSet(-1)
}

func BenchmarkBitSetIntersectCount(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := NewBitSet(4096), NewBitSet(4096)
	for i := 0; i < 1024; i++ {
		x.Set(rng.Intn(4096))
		y.Set(rng.Intn(4096))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.IntersectCount(y)
	}
}

func TestNextSetBoundaries(t *testing.T) {
	b := NewBitSet(200)
	for _, v := range []int{0, 63, 64, 127, 128, 199} {
		b.Set(v)
	}
	want := []int{0, 63, 64, 127, 128, 199}
	var got []int
	for v := b.NextSet(0); v >= 0; v = b.NextSet(v + 1) {
		got = append(got, v)
	}
	if len(got) != len(want) {
		t.Fatalf("NextSet walk = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NextSet walk = %v, want %v", got, want)
		}
	}
	// Starting points inside, between and past the elements.
	for _, tc := range [][2]int{{0, 0}, {1, 63}, {63, 63}, {64, 64}, {65, 127}, {129, 199}, {199, 199}} {
		if got := b.NextSet(tc[0]); got != tc[1] {
			t.Errorf("NextSet(%d) = %d, want %d", tc[0], got, tc[1])
		}
	}
	if got := b.NextSet(200); got != -1 {
		t.Errorf("NextSet(200) = %d, want -1", got)
	}
	if got := b.NextSet(-5); got != 0 {
		t.Errorf("NextSet(-5) = %d, want 0", got)
	}
	if got := NewBitSet(100).NextSet(0); got != -1 {
		t.Errorf("NextSet on empty = %d, want -1", got)
	}
	if got := NewBitSet(0).NextSet(0); got != -1 {
		t.Errorf("NextSet on zero-capacity = %d, want -1", got)
	}
}

// NextSet walks and ForEach walks must agree on random sets.
func TestNextSetMatchesForEach(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		b := NewBitSet(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				b.Set(i)
			}
		}
		var fe []int
		b.ForEach(func(i int) bool { fe = append(fe, i); return true })
		var ns []int
		for v := b.NextSet(0); v >= 0; v = b.NextSet(v + 1) {
			ns = append(ns, v)
		}
		if len(fe) != len(ns) {
			t.Fatalf("trial %d: ForEach %v != NextSet %v", trial, fe, ns)
		}
		for i := range fe {
			if fe[i] != ns[i] {
				t.Fatalf("trial %d: ForEach %v != NextSet %v", trial, fe, ns)
			}
		}
	}
}

// NextSet must tolerate the loop body clearing the element it sits on —
// the pattern State.SetCut relies on.
func TestNextSetMutationDuringWalk(t *testing.T) {
	b := NewBitSet(150)
	for i := 0; i < 150; i += 7 {
		b.Set(i)
	}
	count := 0
	for v := b.NextSet(0); v >= 0; v = b.NextSet(v + 1) {
		b.Clear(v)
		count++
	}
	if count != (149/7)+1 {
		t.Fatalf("walk visited %d elements, want %d", count, (149/7)+1)
	}
	if !b.Empty() {
		t.Fatalf("set not drained: %v", b)
	}
}
