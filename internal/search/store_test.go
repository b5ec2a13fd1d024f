package search

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dfgio"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/latency"
)

// reparse round-trips the application through dfgio, yielding structurally
// identical blocks at fresh pointer identities — exactly what a second
// upload of the same .dfg file looks like to the service.
func reparse(t *testing.T, app *ir.Application) *ir.Application {
	t.Helper()
	var sb strings.Builder
	if err := dfgio.WriteApplication(&sb, app); err != nil {
		t.Fatal(err)
	}
	got, err := dfgio.ParseApplication(app.Name, strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func generateWith(t *testing.T, cache *CostCache, app *ir.Application) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.MaxIn, cfg.MaxOut, cfg.NISE = 4, 2, 4
	r := &Runner{Workers: 1, Cache: cache}
	if _, _, err := r.GenerateContext(context.Background(), app, cfg, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPersistentCacheSharesAcrossParses(t *testing.T) {
	app := kernels.Fbital00()
	cache := NewPersistentCostCache(nil) // content-keyed, memory-only
	generateWith(t, cache, app)
	h1, m1 := cache.Stats()
	if m1 == 0 {
		t.Fatal("first run computed nothing")
	}
	generateWith(t, cache, reparse(t, app))
	h2, m2 := cache.Stats()
	if m2 != m1 {
		t.Fatalf("re-upload recomputed %d costings; content keying should hit every one", m2-m1)
	}
	if h2 <= h1 {
		t.Fatal("re-upload produced no cache hits")
	}
}

func TestPointerKeyedCacheDoesNotShareAcrossParses(t *testing.T) {
	app := kernels.Fbital00()
	cache := NewCostCache()
	generateWith(t, cache, app)
	_, m1 := cache.Stats()
	generateWith(t, cache, reparse(t, app))
	_, m2 := cache.Stats()
	if m2 == m1 {
		t.Fatal("pointer-keyed cache unexpectedly shared entries across parses")
	}
}

func TestPersistentCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	app := kernels.Fbital00()

	store1, err := NewStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewPersistentCostCache(store1)
	generateWith(t, c1, app)
	_, misses1 := c1.Stats()
	if err := c1.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if st := store1.Stats(); st.Saves == 0 {
		t.Fatal("Flush persisted nothing")
	}

	// "Restart": a brand-new store and cache over the same directory.
	store2, err := NewStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewPersistentCostCache(store2)
	generateWith(t, c2, reparse(t, app))
	hits2, misses2 := c2.Stats()
	if misses2 != 0 {
		t.Fatalf("post-restart run recomputed %d costings (of %d); disk cache should cover all", misses2, misses1)
	}
	if hits2 == 0 {
		t.Fatal("post-restart run produced no hits")
	}
}

func TestFlushIsIdempotentAndSkipsClean(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewPersistentCostCache(store)
	generateWith(t, c, kernels.Fbital00())
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	saves := store.Stats().Saves
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := store.Stats().Saves; got != saves {
		t.Fatalf("second Flush wrote %d more files despite no new entries", got-saves)
	}
}

func TestStoreEvictionBoundsSize(t *testing.T) {
	dir := t.TempDir()
	const maxBytes = 4096
	store, err := NewStore(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	entry := map[string]core.Metrics{}
	for i := 0; i < 40; i++ {
		entry[strings.Repeat("k", 20)+string(rune('a'+i))] = core.Metrics{SWLat: i}
	}
	entryName := func(key string) string { return key + ".v2.gob" }
	for i := 0; i < 16; i++ {
		key := "block" + string(rune('a'+i))
		if err := store.Save(key, entry); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so LRU order is well defined even on coarse
		// filesystem timestamp granularity.
		old := time.Now().Add(time.Duration(i-16) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, entryName(key)), old, old); err != nil {
			t.Fatal(err)
		}
	}
	// One more save triggers eviction of the oldest entries.
	if err := store.Save("blockzz", entry); err != nil {
		t.Fatal(err)
	}
	var total int64
	dirents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	kept := map[string]bool{}
	for _, de := range dirents {
		fi, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
		kept[de.Name()] = true
	}
	if total > maxBytes {
		t.Fatalf("store holds %d bytes, bound is %d", total, maxBytes)
	}
	if !kept[entryName("blockzz")] {
		t.Fatal("most recent entry was evicted")
	}
	if kept[entryName("blocka")] {
		t.Fatal("least recently used entry survived eviction")
	}
	if store.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded")
	}

	// Evicted entries simply miss; surviving ones load.
	if _, ok := store.Load("blocka"); ok {
		t.Fatal("evicted entry still loads")
	}
	if m, ok := store.Load("blockzz"); !ok || len(m) != len(entry) {
		t.Fatalf("surviving entry load = (%d entries, %v), want %d", len(m), ok, len(entry))
	}
}

// TestStoreVersionedEntries pins the staleness guard: entries written
// under a different (older) format name are never loaded — they read as
// misses and are recomputed rather than served as stale costings.
func TestStoreVersionedEntries(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("k", map[string]core.Metrics{"c": {SWLat: 1}}); err != nil {
		t.Fatal(err)
	}
	dirents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirents) != 1 || !strings.Contains(dirents[0].Name(), ".v2.") {
		t.Fatalf("entry files %v, want one name embedding the format version", dirents)
	}
	// An unversioned file from a hypothetical older binary is ignored.
	if err := os.WriteFile(filepath.Join(dir, "old.gob"), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load("old"); ok {
		t.Fatal("unversioned legacy entry was served")
	}
}

func TestFlushRetriesAfterSaveFailure(t *testing.T) {
	dir := t.TempDir()
	// ProbeEvery 1: every Save while degraded goes to disk as a recovery
	// probe, so the healed directory is noticed on the first post-recovery
	// Flush no matter how many entries tripped the write breaker.
	store, err := NewStoreOptions(dir, 0, StoreOptions{ProbeEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := NewPersistentCostCache(store)
	generateWith(t, c, kernels.Fbital00())
	// Break the store (directory gone -> CreateTemp fails), flush, then
	// heal it: the entries must still be dirty and persist on retry.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err == nil {
		t.Fatal("Flush over a missing directory reported success")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush after recovery: %v", err)
	}
	dirents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirents) == 0 {
		t.Fatal("recovered Flush persisted nothing; dirty flag was lost on failure")
	}
}

func TestPersistentCachePointerMemoBounded(t *testing.T) {
	c := NewPersistentCostCache(nil)
	model := latency.Default()
	build := func() *ir.Block {
		b := ir.NewBuilder("same", 1)
		x, y := b.Input("x"), b.Input("y")
		b.LiveOut(b.Add(x, y))
		return b.MustBuild()
	}
	cut := func(blk *ir.Block) {
		s := graph.NewBitSet(blk.N())
		s.Set(0)
		c.Metrics(blk, model, s)
	}
	for i := 0; i < maxPointerAliases+64; i++ {
		cut(build()) // fresh pointer, identical content, every iteration
	}
	c.mu.RLock()
	nPtr, nKey := len(c.blocks), len(c.byKey)
	c.mu.RUnlock()
	if nPtr > maxPointerAliases {
		t.Fatalf("pointer memo holds %d entries, bound is %d", nPtr, maxPointerAliases)
	}
	if nKey != 1 {
		t.Fatalf("byKey holds %d entries for one distinct block, want 1", nKey)
	}
	if hits, _ := c.Stats(); hits == 0 {
		t.Fatal("identical re-parsed blocks produced no hits")
	}
}

// TestPersistentCacheByKeyBoundedWithoutStore pins the memory bound of
// the server-default configuration (content-keyed, no disk store): the
// per-content costing maps must not accumulate one entry per distinct
// uploaded block forever.
func TestPersistentCacheByKeyBoundedWithoutStore(t *testing.T) {
	c := NewPersistentCostCache(nil)
	model := latency.Default()
	for i := 0; i < maxBlockCaches+64; i++ {
		b := ir.NewBuilder("b", 1)
		x := b.Input("x")
		b.LiveOut(b.Add(x, b.Imm(int32(i)))) // distinct content per block
		blk := b.MustBuild()
		s := graph.NewBitSet(blk.N())
		s.Set(0)
		c.Metrics(blk, model, s)
	}
	c.mu.RLock()
	n := len(c.byKey)
	c.mu.RUnlock()
	if n > maxBlockCaches {
		t.Fatalf("byKey holds %d costing maps, bound is %d", n, maxBlockCaches)
	}
}

func TestModelFingerprintDistinguishesModels(t *testing.T) {
	a := latency.Default()
	b := latency.Default()
	if ModelFingerprint(a) != ModelFingerprint(b) {
		t.Fatal("identical models fingerprint differently")
	}
	b.SW[1] += 5
	if ModelFingerprint(a) == ModelFingerprint(b) {
		t.Fatal("modified model fingerprints equal")
	}
}
