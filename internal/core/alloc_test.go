package core_test

import (
	"context"
	"runtime"
	"testing"

	"discsec/internal/core"
	"discsec/internal/experiments"
	"discsec/internal/workload"
	"discsec/internal/xmlenc"
	"discsec/internal/xmlsecuri"
)

// openDoc packages a one-application cluster the way the benchmark
// suite's corpus does: signed over the whole cluster, then the code
// encrypted with AES-128-CBC.
func openDoc(t *testing.T, stmts int) []byte {
	t.Helper()
	_, creator := experiments.PKIFixture()
	cl, _ := workload.Cluster(workload.ClusterSpec{
		AppTracks: 1,
		Manifest:  workload.ManifestSpec{Regions: 2, MediaItems: 2, Scripts: 1, ScriptStatements: stmts},
		Seed:      uint64(stmts),
	})
	im, err := (&core.Protector{Identity: creator}).Package(core.PackageSpec{
		Cluster:      cl,
		Sign:         true,
		SignLevel:    core.LevelCluster,
		EncryptPaths: []string{"//manifest/code"},
		Encryption:   xmlenc.EncryptOptions{Algorithm: xmlsecuri.EncAES128CBC, Key: experiments.EncKey},
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := im.ReadIndexDocumentBytes()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestOpenAllocsPinned: core.Open releases the tree it verified, so a
// repeat open of a lib-cold sized document (stmts=60) parses into a
// recycled arena and allocates about what its result keeps, under the
// bound a library refill is held to (TestRefillAllocsPinned): at most
// 38 allocations and 6 KiB. While Open handed the tree to its caller,
// the same open and decode made 65 allocations of 34.1 KB. stmts=20
// and stmts=2000 are logged, not pinned.
func TestOpenAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	ctx := context.Background()
	root, _ := experiments.PKIFixture()
	op := core.Opener{
		Roots:            root.Pool(),
		Decrypt:          xmlenc.DecryptOptions{Key: experiments.EncKey}.ExpandKey(),
		RequireSignature: true,
	}
	for _, stmts := range []int{20, 60, 2000} {
		raw := openDoc(t, stmts)
		open := func() {
			if res, err := op.Open(ctx, raw); err != nil || res.Cluster == nil {
				t.Fatalf("stmts=%d: open: %v", stmts, err)
			}
		}
		open()
		allocs := testing.AllocsPerRun(50, open)
		bytes := bytesPerRun(50, open)
		t.Logf("stmts=%d (%d bytes): %.0f allocations, %d bytes per open", stmts, len(raw), allocs, bytes)
		if stmts != 60 {
			continue
		}
		if allocs > 38 {
			t.Errorf("an open made %.0f allocations, want at most 38", allocs)
		}
		if bytes > 6<<10 {
			t.Errorf("an open allocated %d bytes, want at most %d", bytes, 6<<10)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for heap bytes: the mean bytes
// allocated by runs calls of f, after one warm-up call, on one P.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
