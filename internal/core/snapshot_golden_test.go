package core

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/dfggen"
	"repro/internal/ir"
	"repro/internal/kernels"
)

// snapshotGoldenFile holds one line per (block, port point): the block's
// name, the port limits and one FNV-64a hash per restart trajectory.
const snapshotGoldenFile = "testdata/snapshot_golden.txt"

// snapshotGoldenIO are the (MaxIn, MaxOut) points of the golden sweep.
var snapshotGoldenIO = [][2]int{{4, 2}, {2, 1}, {3, 1}, {6, 3}, {8, 4}}

// snapshotGoldenDfggen is the number of generated blocks in the sweep, and
// snapshotGoldenShort the number of leading golden lines -short checks
// (the Figure 4 blocks and the first generated ones).
const (
	snapshotGoldenDfggen = 300
	snapshotGoldenShort  = 400
)

// snapshotGoldenBlocks returns the sweep's blocks in golden order: every
// block of the Figure 4 applications, the generated blocks of 8–120
// nodes, then AES.
func snapshotGoldenBlocks() []*ir.Block {
	var out []*ir.Block
	for _, spec := range kernels.All() {
		out = append(out, spec.App.Blocks...)
	}
	p := dfggen.DefaultParams()
	p.MinNodes, p.MaxNodes = 8, 120
	for i := 0; i < snapshotGoldenDfggen; i++ {
		blk := dfggen.Block(dfggen.Seeded(int64(31000+i)), p)
		blk.Name = fmt.Sprintf("dfggen%03d", i)
		out = append(out, blk)
	}
	return append(out, kernels.AES().Blocks...)
}

// trajectoryHash is the FNV-64a hash of one trajectory's snapshots in
// order: each snapshot's node-set words, then its merit's bits.
func trajectoryHash(snaps []Candidate) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, c := range snaps {
		for _, w := range c.Nodes.Words() {
			binary.LittleEndian.PutUint64(buf[:], w)
			h.Write(buf[:])
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c.Merit))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// snapshotGoldenLines runs every restart trajectory of the sweep, stopping
// after limit lines (0 means all), and renders the golden lines.
func snapshotGoldenLines(t *testing.T, limit int) []string {
	t.Helper()
	var lines []string
	for _, blk := range snapshotGoldenBlocks() {
		for _, io := range snapshotGoldenIO {
			if limit > 0 && len(lines) == limit {
				return lines
			}
			cfg := DefaultConfig()
			cfg.MaxIn, cfg.MaxOut = io[0], io[1]
			eng, err := NewEngine(blk, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%s %d,%d", blk.Name, io[0], io[1])
			for _, seed := range eng.Seeds() {
				snaps, err := eng.TrajectoryContext(context.Background(), seed)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, " %016x", trajectoryHash(snaps))
			}
			lines = append(lines, b.String())
		}
	}
	return lines
}

// TestTrajectorySnapshotGolden pins every restart trajectory's snapshot
// sequence — node sets and merits, in order — over the Figure 4 blocks,
// generated blocks and AES at five port points. The golden file was
// recorded with full K-L passes (every pass toggling every unfrozen
// node), so it also pins that the pass cutoff changes no snapshot.
func TestTrajectorySnapshotGolden(t *testing.T) {
	f, err := os.Open(snapshotGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	limit := 0
	if testing.Short() {
		limit = snapshotGoldenShort
		want = want[:min(limit, len(want))]
	}
	got := snapshotGoldenLines(t, limit)
	if len(got) != len(want) {
		t.Fatalf("%d golden lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
}
