package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/kernels"
	"repro/internal/search"
)

// aesStreamSHA256 is the SHA-256 of the default-params NDJSON stream for
// the AES kernel. The stream depends on every match the reuse matcher
// returns, in order, and on its per-block limit; a change that reorders
// matches or alters how duplicates count toward the limit moves it.
const aesStreamSHA256 = "8ca1aa92ff8347062a5345ab545f4768e7e21da86381a4875acb55f61babb0ab"

func TestAESReuseStreamGolden(t *testing.T) {
	h := sha256.New()
	if err := Run(context.Background(), kernels.AES(), DefaultParams(), search.NewCostCache(), NDJSONEmitter(h)); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != aesStreamSHA256 {
		t.Fatalf("AES stream SHA-256 = %s, want %s", got, aesStreamSHA256)
	}
}
