package partition_test

import (
	"testing"

	"macroflow/internal/fabric"
	"macroflow/internal/partition"
)

// decodeProblem interprets arbitrary bytes as a partition problem. The
// decoder is total (any input yields some problem) and deliberately
// does NOT validate net endpoints — out-of-range indices reach
// Assign, which must reject them with a typed error rather than
// panic.
func decodeProblem(data []byte) *partition.Problem {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	p := &partition.Problem{}
	members := next() % 5
	for k := 0; k < members; k++ {
		p.Capacity = append(p.Capacity, fabric.ResourceCount{
			SlicesL: next() * 4, SlicesM: next() * 2,
			BRAM: next() % 32, DSP: next() % 64,
		})
	}
	instances := next() % 33
	for i := 0; i < instances; i++ {
		p.Demand = append(p.Demand, fabric.ResourceCount{
			SlicesL: next() % 64, SlicesM: next() % 32,
			BRAM: next() % 4, DSP: next() % 8,
		})
	}
	nets := next() % 48
	for e := 0; e < nets; e++ {
		p.Nets = append(p.Nets, partition.Net{
			// %64 ranges past the instance count, so malformed nets occur.
			From: next()%64 - 8, To: next()%64 - 8,
			Weight: float64(next()%16) / 4,
		})
	}
	return p
}

// FuzzPartitionAssign: arbitrary bytes decode to blocks/nets/members;
// Assign must return a valid assignment or a typed error, and never
// panic. ci.sh runs this as a smoke target.
func FuzzPartitionAssign(f *testing.F) {
	f.Add([]byte{}, int64(0))
	f.Add([]byte{2, 10, 10, 4, 8, 12, 8, 3, 6, 3, 4, 1, 2, 0, 1, 2, 3}, int64(1))
	f.Add([]byte{1, 255, 255, 31, 63, 2, 63, 31, 3, 7, 63, 31, 3, 7, 1, 70, 70, 8}, int64(7))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		p := decodeProblem(data)
		a, err := partition.Assign(p, partition.Config{Seed: seed})
		if err != nil {
			if !typedError(err) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if !assignmentValid(p, a) {
			t.Fatalf("invalid assignment for %d instances on %d members",
				len(p.Demand), len(p.Capacity))
		}
	})
}
