package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dfgio"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/search"
	"repro/internal/service"
)

// writeDFG serializes app to a .dfg file in a test directory, the same
// bytes `dfgtool gen` writes for a built-in benchmark.
func writeDFG(t *testing.T, app *ir.Application) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), app.Name+".dfg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dfgio.WriteApplication(f, app); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCLI runs isegen in-process and returns its exit status, stdout and
// stderr.
func runCLI(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := cli(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func benchmarkApp(t *testing.T, name string) *ir.Application {
	t.Helper()
	for _, s := range kernels.All() {
		if s.Name == name {
			return s.App
		}
	}
	t.Fatalf("no benchmark %q", name)
	return nil
}

// TestTextReportGolden pins the default-algo text report byte for byte,
// so its rendering of the service.Run stream cannot drift.
func TestTextReportGolden(t *testing.T) {
	golden := map[string]map[string]string{
		"fbital00": {
			"":                  "8a418b30fad3bc394f31b5d8f086e99e070dbf0bd8d8fd9137120abb1d4d26fc",
			"-noreuse":          "8a418b30fad3bc394f31b5d8f086e99e070dbf0bd8d8fd9137120abb1d4d26fc",
			"-objective pareto": "8a50f2f2557e84fde0a39daca1dc1d9c4060153df42c3a5de33a13e3e7c30024",
		},
		"adpcm_coder": {
			"":                  "635e7f143b308c1d150dfc5b1eba6f6a51f6680af540d9fed7558a00f37f29f2",
			"-noreuse":          "847390e76c502663179a332310b897c31de6ff26adf26ac817b68903faaae052",
			"-objective pareto": "0cc53684e1c841dc635177eaae37ad2ba1538e4ab4fda0b026cbba9594935e84",
		},
		// ISE 3 comes from a later block than ISE 4, so the report must
		// reorder the per-block records by ISE number.
		"adpcm_decoder": {
			"": "ebd3b8639e4e6c02da2e0bc00a42b9909816e87c8d01c5a3a8fb8504c106faed",
		},
	}
	for name, byFlags := range golden {
		path := writeDFG(t, benchmarkApp(t, name))
		for flags, want := range byFlags {
			code, out, errOut := runCLI(append(strings.Fields(flags), path)...)
			if code != 0 {
				t.Fatalf("%s %q: exit %d: %s", name, flags, code, errOut)
			}
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s %q: report sha256 %s, want %s\n%s", name, flags, got, want, out)
			}
		}
	}
}

// TestTextAgreesWithJSON: both output modes render the same service.Run
// stream, so for every engine the text report's application line is the
// JSON summary record formatted.
func TestTextAgreesWithJSON(t *testing.T) {
	path := writeDFG(t, kernels.Fbital00())
	for _, algo := range search.Names() {
		code, text, errOut := runCLI("-algo", algo, path)
		if code != 0 {
			t.Fatalf("%s text: exit %d: %s", algo, code, errOut)
		}
		code, stream, errOut := runCLI("-algo", algo, "-json", path)
		if code != 0 {
			t.Fatalf("%s json: exit %d: %s", algo, code, errOut)
		}
		var sum service.Summary
		sc := bufio.NewScanner(strings.NewReader(stream))
		for sc.Scan() {
			if strings.Contains(sc.Text(), `"type":"summary"`) {
				if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := fmt.Sprintf("application: speedup %.3f, coverage %.1f%%, code size %d -> %d, energy %.1f%%",
			sum.Speedup, 100*sum.Coverage, sum.StaticBefore, sum.StaticAfter, 100*sum.EnergyRatio)
		if sum.Type != "summary" || !strings.Contains(text, want+"\n") {
			t.Errorf("%s: text report\n%s\nlacks the JSON summary's line %q", algo, text, want)
		}
	}
}

// TestExactTextSkipsOversizedBlock: the exact engine covers every block
// within its node limit and skips AES's 696-node block with a note,
// instead of failing the run.
func TestExactTextSkipsOversizedBlock(t *testing.T) {
	path := writeDFG(t, kernels.AES())
	code, out, errOut := runCLI("-algo", "exact", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(errOut, "skipped block 0 (aes_rounds): block exceeds exact engine node limit (696 > 25)") {
		t.Errorf("stderr %q lacks the skipped-block note", errOut)
	}
	if !strings.Contains(out, "application: speedup ") {
		t.Errorf("no application line in\n%s", out)
	}
}
