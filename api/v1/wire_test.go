package apiv1

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"macroflow"
)

// TestWireResultPinned pins the result bytes the daemon serves, one
// digest per job shape, recorded on the commit before the wire records
// became aliases of the library's (the hand-written field-by-field
// copies in convert.go used to be what kept the two spellings in step).
// A digest moves only when a served byte moves: a renamed or reordered
// JSON field, a changed omitempty, a copy that turned into a share.
func TestWireResultPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("cnv flow in -short mode")
	}
	cnv := func(device string, so macroflow.StitchOptions, im macroflow.ImplementOptions, po macroflow.PartitionOptions) func(*testing.T) *CompileResult {
		return func(t *testing.T) *CompileResult {
			f, err := macroflow.NewFlow(device)
			if err != nil {
				t.Fatal(err)
			}
			f.SetSearch(0.5, 0.02, 3.0)
			so.Seed = 1
			so.Anneal.Iterations = 20000
			if im.Check == macroflow.CheckOff {
				// A fresh cache, so the cache record carries non-zero
				// counters; one worker, because which of two racing
				// lanes counts a miss and which a singleflight hit is
				// the one thing in a result that timing decides.
				im.Cache = macroflow.NewBlockCache()
				im.Workers = 1
			}
			res, err := f.RunCNV(macroflow.MinSweepCF(), macroflow.CNVOptions{Stitch: so, Implement: im, Partition: po})
			if err != nil {
				t.Fatal(err)
			}
			return ResultFromCNV(res, false)
		}
	}
	custom := func(t *testing.T) *CompileResult {
		req := fullRequest()
		f, err := macroflow.NewFlow(req.Device)
		if err != nil {
			t.Fatal(err)
		}
		d, err := req.Design.BuildDesign()
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Compile(d, macroflow.ConstantCF(req.Mode.CF), macroflow.CompileOptions{
			Stitch: macroflow.StitchOptions{Seed: 7, Anneal: macroflow.AnnealOptions{Iterations: 9000, Chains: 2},
				TraceEvery: 128, Check: macroflow.CheckSampled},
		})
		if err != nil {
			t.Fatal(err)
		}
		wire := ResultFromCompile(res, false)
		wire.Instances = req.Design.InstanceCounts()
		return wire
	}
	for _, tc := range []struct {
		name string
		run  func(*testing.T) *CompileResult
		want string
	}{
		{"xc7z020/anneal-4chains",
			cnv("xc7z020", macroflow.StitchOptions{Anneal: macroflow.AnnealOptions{Chains: 4}},
				macroflow.ImplementOptions{}, macroflow.PartitionOptions{}),
			"423971381515f0e6ce02c3e2139519a2b23dc04ae337c40c933d0ede7d2ffc57"},
		{"xc7z045/hybrid-check-full",
			cnv("xc7z045", macroflow.StitchOptions{Backend: macroflow.BackendHybrid, Check: macroflow.CheckFull},
				macroflow.ImplementOptions{Check: macroflow.CheckFull}, macroflow.PartitionOptions{}),
			"119835d5543c7052275bbc8e3c135ebd8daf05df3d503dce20297e35b8d262fe"},
		{"xc7z045/analytic",
			cnv("xc7z045", macroflow.StitchOptions{Backend: macroflow.BackendAnalytic},
				macroflow.ImplementOptions{}, macroflow.PartitionOptions{}),
			"9524d96ee9a892cfb6792bbae108b04765d618c5240fd5d15ed69c3bb02d0296"},
		{"xc7z045/partitioned-2shards",
			cnv("xc7z045", macroflow.StitchOptions{}, macroflow.ImplementOptions{}, macroflow.PartitionOptions{Shards: 2}),
			"ce599601bbf7400601c290b8b5c5d69c48099f4092fbfc3e26e4afb2c129cba2"},
		{"custom", custom, "fd613d6f5ef5baddc4726b2410ecfee179781939f20aad799fc355cfb02526ff"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := json.Marshal(tc.run(t))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("result bytes changed (%d bytes): digest %s, pinned %s", len(data), got, tc.want)
			}
		})
	}
}
