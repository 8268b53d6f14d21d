package macroflow

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"macroflow/internal/cnv"
)

// cnvDigest folds everything RunCNV's callers read off a result into
// one SHA-256: every block's identity and implementation, the tallies,
// and the stitched outcome.
func cnvDigest(res *CNVResult, withFirstRun bool) string {
	h := sha256.New()
	for i, b := range res.Blocks {
		fmt.Fprintf(h, "%s|%.4f|%d|%s|%d\n", b.Name, b.CF, b.ToolRuns, b.PBlock, res.Instances[i])
	}
	fmt.Fprintf(h, "runs=%d cost=%.6f placed=%d unplaced=%d\n",
		res.TotalToolRuns, res.Stitch.FinalCost, res.Stitch.Placed, res.Stitch.Unplaced)
	if withFirstRun {
		fmt.Fprintf(h, "first=%.6f\n", res.FirstRunRate)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunCNVPinned pins the cnvW1A1 flow's outcome to digests recorded
// before RunCNV became a wrapper over Compile: the merged pipeline must
// reproduce them bit for bit, on any core count.
func TestRunCNVPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("cnv flow in -short mode")
	}
	opts := CNVOptions{Stitch: StitchOptions{Seed: 1, Anneal: AnnealOptions{Iterations: 20000}}}

	f, err := NewFlow("xc7z020")
	if err != nil {
		t.Fatal(err)
	}
	f.SetSearch(0.5, 0.02, 3.0)
	res, err := f.RunCNV(MinSweepCF(), opts)
	if err != nil {
		t.Fatal(err)
	}
	const wantSweep = "a5afd1da7133ff8918e6c05597dd6ef2a2116e558ddee064ed41a75d6d57fd49"
	if got := cnvDigest(res, false); got != wantSweep {
		t.Errorf("minsweep digest = %s, want %s", got, wantSweep)
	}

	fe, est, _ := trainQuick(t, DecisionTree, FeaturesAdditional)
	fe.SetSearch(0.5, 0.02, 3.0)
	res, err = fe.RunCNV(EstimatorCF(est), opts)
	if err != nil {
		t.Fatal(err)
	}
	const wantEst = "1ee47d3d79fe4c704adebf7cc15e15a0cb8477e5359e6e63af738e9c091f178f"
	if got := cnvDigest(res, true); got != wantEst {
		t.Errorf("estimator digest = %s, want %s", got, wantEst)
	}
}

// asCompile is the CompileResult a CNVResult wraps.
func asCompile(r *CNVResult) *CompileResult {
	return &CompileResult{Blocks: r.Blocks, ToolRuns: r.TotalToolRuns, CacheHits: r.CacheHits,
		Cache: r.Cache, Stitch: r.Stitch, Partition: r.Partition, Verify: r.Verify}
}

// TestRunCNVIsCompile: RunCNV adds tallies to a Compile of the cnvW1A1
// design and nothing else — the result it wraps equals the direct
// compile field for field, serial and at the default worker count.
func TestRunCNVIsCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("cnv flow in -short mode")
	}
	f, err := NewFlow("xc7z020")
	if err != nil {
		t.Fatal(err)
	}
	f.SetSearch(0.5, 0.02, 3.0)
	for _, workers := range []int{1, 0} {
		opts := func() CompileOptions {
			return CompileOptions{
				Stitch:    StitchOptions{Seed: 1, Anneal: AnnealOptions{Iterations: 20000}},
				Implement: ImplementOptions{Workers: workers, Cache: NewBlockCache()},
			}
		}
		wrapped, err := f.RunCNV(MinSweepCF(), opts())
		if err != nil {
			t.Fatal(err)
		}
		direct, err := f.Compile(cnvDesign(cnv.CNVW1A1()), MinSweepCF(), opts())
		if err != nil {
			t.Fatal(err)
		}
		got := asCompile(wrapped)
		if workers != 1 {
			// Identical netlists racing through parallel lanes split
			// between memory and singleflight hits; only the sum is fixed.
			for _, c := range []*CacheStats{&got.Cache, &direct.Cache} {
				c.MemHits, c.SingleflightHits = c.MemHits+c.SingleflightHits, 0
			}
		}
		if !reflect.DeepEqual(got, direct) {
			t.Errorf("workers=%d: RunCNV wraps\n%+v\nCompile returns\n%+v", workers, got, direct)
		}
		total := 0
		for _, n := range wrapped.Instances {
			total += n
		}
		if total != 175 {
			t.Errorf("workers=%d: instances = %d, want 175", workers, total)
		}
	}
}

// sameImpl reports whether two block results carry one implementation.
func sameImpl(a, b ModuleResult) bool {
	return a.Name == b.Name && a.CF == b.CF && a.ToolRuns == b.ToolRuns && a.PBlock == b.PBlock
}

// checkSharedCache compiles a sequence of modes and search windows
// against one shared cache and holds every call to the uncached compile
// of the same call.
func checkSharedCache(t *testing.T, f *Flow, est *Estimator, compile func(CFMode, *BlockCache) *CompileResult) {
	t.Helper()
	shared := NewBlockCache()
	// The first call finds the cache empty: its hits are the design's
	// own duplicate netlists, which every later call repeats.
	dup := -1
	for _, c := range []struct {
		name   string
		start  float64
		mode   CFMode
		mayHit bool
	}{
		{"minsweep", 0.9, MinSweepCF(), false},
		{"constant", 0.9, ConstantCF(2.5), false},
		{"minsweep-window", 1.5, MinSweepCF(), false},
		// Blocks below six slices are swept in estimator mode, so the
		// previous call's records legitimately serve them.
		{"estimator", 1.5, EstimatorCF(est), true},
		// An identical repeat is served entirely from the cache.
		{"repeat", 1.5, EstimatorCF(est), true},
	} {
		f.SetSearch(c.start, 0.02, 3.0)
		want, got := compile(c.mode, nil), compile(c.mode, shared)
		if dup < 0 {
			dup = got.CacheHits
		}
		if !c.mayHit && got.CacheHits != dup {
			t.Errorf("%s: %d cache hits, want %d — another mode's or window's blocks were served", c.name, got.CacheHits, dup)
		}
		if c.name == "repeat" && (got.CacheHits != len(got.Blocks) || got.ToolRuns != 0) {
			t.Errorf("repeat: %d hits and %d tool runs over %d blocks, want all hits and no runs",
				got.CacheHits, got.ToolRuns, len(got.Blocks))
		}
		for i := range want.Blocks {
			if !sameImpl(got.Blocks[i], want.Blocks[i]) {
				t.Errorf("%s: block %v, uncached compile has %v", c.name, got.Blocks[i], want.Blocks[i])
			}
		}
		if got.Verify != nil && !got.Verify.Ok() {
			t.Errorf("%s: audit failed:\n%s", c.name, got.Verify.String())
		}
	}
}

// TestSharedCacheRespectsModeAndWindow: a cache shared across compiles
// (as macroflowd's jobs share one) must never serve a block implemented
// under another CF mode or search window — through Compile and through
// RunCNV alike.
func TestSharedCacheRespectsModeAndWindow(t *testing.T) {
	f, est, _ := trainQuick(t, DecisionTree, FeaturesAdditional)
	t.Run("Compile", func(t *testing.T) {
		d := verifySmallDesign(t)
		checkSharedCache(t, f, est, func(mode CFMode, cache *BlockCache) *CompileResult {
			res, err := f.Compile(d, mode, CompileOptions{
				SkipStitch: true,
				Implement:  ImplementOptions{Cache: cache, Check: CheckFull},
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		})
	})
	t.Run("RunCNV", func(t *testing.T) {
		if testing.Short() {
			t.Skip("cnv flow in -short mode")
		}
		checkSharedCache(t, f, est, func(mode CFMode, cache *BlockCache) *CompileResult {
			res, err := f.RunCNV(mode, CNVOptions{
				SkipStitch: true,
				Implement:  ImplementOptions{Cache: cache},
			})
			if err != nil {
				t.Fatal(err)
			}
			return asCompile(res)
		})
	})
}

// TestRenamedBlockKeepsName: the same components submitted under a new
// spec name are a cache hit — renaming is not a change — and the result
// carries the requesting spec's name, not the first submitter's.
func TestRenamedBlockKeepsName(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	f.SetSearch(0.9, 0.02, 3.0)
	cache := NewBlockCache()
	compile := func(name string) *CompileResult {
		d := NewDesign()
		d.AddBlockType(NewSpec(name).ShiftRegs(4, 8, 2, 4).SumOfSquares(6, 2))
		res, err := f.Compile(d, MinSweepCF(), CompileOptions{
			SkipStitch: true,
			Implement:  ImplementOptions{Cache: cache},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first, second := compile("alpha"), compile("beta")
	if second.CacheHits != 1 || second.ToolRuns != 0 {
		t.Errorf("renamed block: %d hits, %d tool runs, want a cache hit", second.CacheHits, second.ToolRuns)
	}
	if got := second.Blocks[0].Name; got != "beta" {
		t.Errorf("renamed block came back as %q, want beta", got)
	}
	want := first.Blocks[0]
	want.Name = "beta"
	if second.Blocks[0] != want {
		t.Errorf("renamed block = %+v, want %+v", second.Blocks[0], want)
	}
}
