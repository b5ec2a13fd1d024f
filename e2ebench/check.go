package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/latency"
	"repro/internal/service"
)

// raceRecordPrefix starts every racing frontier record — the one part of
// a stream whose presence and order depend on timing.
var raceRecordPrefix = []byte(`{"type":"frontier","stage":`)

// lines splits an NDJSON stream into its records (newlines dropped).
func lines(stream []byte) [][]byte {
	out := bytes.Split(bytes.TrimSuffix(stream, []byte("\n")), []byte("\n"))
	if len(out) == 1 && len(out[0]) == 0 {
		return nil
	}
	return out
}

// deterministic returns the stream without racing frontier records: the
// block records and the summary, which the wire contract pins for every
// worker count and cache state.
func deterministic(stream []byte) []byte {
	if !bytes.Contains(stream, raceRecordPrefix) {
		return stream
	}
	var out []byte
	for _, l := range lines(stream) {
		if !bytes.HasPrefix(l, raceRecordPrefix) {
			out = append(append(out, l...), '\n')
		}
	}
	return out
}

// blockRecords returns only the block records of a stream.
func blockRecords(stream []byte) []byte {
	var out []byte
	for _, l := range lines(stream) {
		if bytes.HasPrefix(l, []byte(`{"type":"block"`)) {
			out = append(append(out, l...), '\n')
		}
	}
	return out
}

// summaryOf decodes the stream's final record.
func summaryOf(stream []byte) (service.Summary, bool) {
	ls := lines(stream)
	var s service.Summary
	if len(ls) == 0 || json.Unmarshal(ls[len(ls)-1], &s) != nil || s.Type != "summary" {
		return s, false
	}
	return s, true
}

// checkJob returns why a job's output is wrong, or "" when it passes every
// check: an error record, a stream that differs from the set-up
// reference, a cut the oracle rejected, or (racing) a block record that
// differs from the algo=exact one.
func checkJob(req *request, stream []byte) string {
	det := deterministic(stream)
	switch {
	case bytes.Contains(stream, []byte(`{"type":"error"`)):
		return "error record"
	case !bytes.Equal(det, req.ref):
		return "stream differs from reference"
	case req.oracleFailure != "":
		return "oracle: " + req.oracleFailure
	case req.exactBlocks != nil && !bytes.Equal(blockRecords(det), req.exactBlocks):
		return "racing block records differ from algo=exact"
	}
	return ""
}

var oracleModel = latency.Default()

// oracle checks every selected cut of a stream with the validity rules of
// difftest.CheckCuts — convex, within the I/O bounds, free of forbidden
// nodes, at most NISE per block, disjoint — and recomputes the recorded
// I/O counts, software latency, AFU cycles and merit with core.MetricsOf.
// It also checks the stream's shape: one block record per block in
// ascending order, then the summary.
func oracle(app *ir.Application, stream []byte, p service.Params) []string {
	var problems []string
	ls := lines(stream)
	if len(ls) != len(app.Blocks)+1 {
		return []string{fmt.Sprintf("%d records for %d blocks", len(ls), len(app.Blocks))}
	}
	ises := 0
	for bi, l := range ls[:len(app.Blocks)] {
		var rec service.BlockResult
		if err := json.Unmarshal(l, &rec); err != nil || rec.Type != "block" || rec.Block != bi {
			problems = append(problems, fmt.Sprintf("record %d is not block %d's record", bi, bi))
			continue
		}
		blk := app.Blocks[bi]
		cuts := make([]*core.Cut, 0, len(rec.Selections))
		for _, sel := range rec.Selections {
			ises++
			nodes := graph.NewBitSet(blk.N())
			for _, n := range sel.Nodes {
				if n < 0 || n >= blk.N() {
					problems = append(problems, fmt.Sprintf("ISE %d: node %d outside block %d", sel.ISE, n, bi))
					nodes = nil
					break
				}
				nodes.Set(n)
			}
			if nodes == nil {
				continue
			}
			ref := core.MetricsOf(blk, oracleModel, nodes)
			if sel.HWCycles != core.HWCycles(ref.HWLat) || math.Float64bits(sel.Merit) != math.Float64bits(ref.Merit()) {
				problems = append(problems, fmt.Sprintf("ISE %d records cycles %d merit %g, oracle says %d and %g",
					sel.ISE, sel.HWCycles, sel.Merit, core.HWCycles(ref.HWLat), ref.Merit()))
			}
			// HWLat is not on the wire; its rounded form was compared
			// above, so CheckCuts gets the oracle's value.
			cuts = append(cuts, &core.Cut{Block: blk, Nodes: nodes,
				NumIn: sel.NumIn, NumOut: sel.NumOut, SWLat: sel.SWLat, HWLat: ref.HWLat})
		}
		for _, v := range difftest.CheckCuts(blk, p.Algo, cuts, p.MaxIn, p.MaxOut, p.NISE) {
			problems = append(problems, fmt.Sprintf("block %d: %s", bi, v))
		}
	}
	if s, ok := summaryOf(stream); !ok {
		problems = append(problems, "stream does not end in a summary record")
	} else if s.ISEs != ises {
		problems = append(problems, fmt.Sprintf("summary counts %d ISEs, block records hold %d", s.ISEs, ises))
	}
	return problems
}
