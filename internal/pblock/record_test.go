package pblock

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"macroflow/internal/cnv"
)

type namedRecord struct {
	name string
	rec  ImplRecord
}

// codecRecords returns the records of the 74 cnvW1A1 min-CF searches
// (named by block type, in the design's order) and then the two
// negative verdicts.
func codecRecords(tb testing.TB) []namedRecord {
	tb.Helper()
	var recs []namedRecord
	add := func(name string, sr SearchResult, err error) {
		rec, ok := RecordSearch(sr, err)
		if !ok {
			tb.Fatalf("%s: search outcome is not cacheable", name)
		}
		recs = append(recs, namedRecord{name, rec})
	}
	d := cnv.CNVW1A1()
	for ti, sr := range cnvSearchAll(tb, cnvWindow) {
		add(d.Types[ti].Name, sr, nil)
	}
	add("negative", SearchResult{ToolRuns: 126}, errors.New("window exhausted"))
	add("nofit", SearchResult{ToolRuns: 1}, fmt.Errorf("too big: %w", ErrNoFit))
	return recs
}

// codecRecord returns the named record's encoding.
func codecRecord(tb testing.TB, name string) (ImplRecord, []byte) {
	tb.Helper()
	for _, r := range codecRecords(tb) {
		if r.name == name {
			data, err := r.rec.MarshalBinary()
			if err != nil {
				tb.Fatal(err)
			}
			return r.rec, data
		}
	}
	tb.Fatalf("no record named %s", name)
	return ImplRecord{}, nil
}

// TestImplRecordRoundTrip: every cnvW1A1 record and both negative
// verdicts decode to the record that was encoded, field for field, and
// encode again to the same bytes.
func TestImplRecordRoundTrip(t *testing.T) {
	recs := codecRecords(t)
	if len(recs) != 76 {
		t.Fatalf("%d records, want the 74 cnv blocks and 2 verdicts", len(recs))
	}
	for _, r := range recs {
		name, rec := r.name, r.rec
		data, err := rec.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got ImplRecord
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("%s: decoded record differs from the encoded one", name)
		}
		again, _ := got.MarshalBinary()
		if !bytes.Equal(again, data) {
			t.Errorf("%s: re-encoded bytes differ", name)
		}
	}
}

// TestImplRecordDecodeAllocs: decoding the largest cnv record allocates
// its two arrays (cell coordinates, footprint columns) and little else.
func TestImplRecordDecodeAllocs(t *testing.T) {
	rec, data := codecRecord(t, "weights_14")
	if len(rec.CellAt) < 4000 {
		t.Fatalf("weights_14 record has %d cells, want the 4415-cell block", len(rec.CellAt))
	}
	var got ImplRecord
	allocs := testing.AllocsPerRun(20, func() {
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("UnmarshalBinary(weights_14) made %.0f allocations, want at most 4", allocs)
	}
}

// TestImplRecordRejectsMalformed: bytes that MarshalBinary cannot have
// written are an ErrRecordFormat, never a panic and never a record.
func TestImplRecordRejectsMalformed(t *testing.T) {
	_, data := codecRecord(t, "mvau_l34")
	bad := map[string][]byte{
		"trailing byte": append(append([]byte(nil), data...), 0),
		"unknown flag":  append([]byte{data[0] | 0x80}, data[1:]...),
	}
	for n := 0; n < len(data); n += 7 {
		bad[fmt.Sprintf("cut at %d", n)] = data[:n]
	}
	// Counts that promise more than the buffer holds, up to the largest
	// a uint32 can claim.
	huge := append([]byte(nil), data...)
	for i := recordHeader - 8; i < recordHeader; i++ {
		huge[i] = 0xff
	}
	bad["huge counts"] = huge
	for name, b := range bad {
		var got ImplRecord
		if err := got.UnmarshalBinary(b); !errors.Is(err, ErrRecordFormat) {
			t.Errorf("%s: error %v, want ErrRecordFormat", name, err)
		}
	}
}

// FuzzImplRecord: any byte string either fails to decode with
// ErrRecordFormat or decodes to a record whose encoding is that byte
// string — the codec accepts exactly its own output.
func FuzzImplRecord(f *testing.F) {
	for _, r := range codecRecords(f) {
		data, _ := r.rec.MarshalBinary()
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec ImplRecord
		if err := rec.UnmarshalBinary(data); err != nil {
			if !errors.Is(err, ErrRecordFormat) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		again, err := rec.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decoded record re-encodes to %d different bytes (input %d)", len(again), len(data))
		}
	})
}
