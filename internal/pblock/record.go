package pblock

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"macroflow/internal/fabric"
	"macroflow/internal/implcache"
	"macroflow/internal/netlist"
	"macroflow/internal/obs"
	"macroflow/internal/place"
	"macroflow/internal/route"
)

// ImplRecord is the serialized outcome of one minimal-CF search, the
// unit stored in the persistent implementation cache. It holds enough of
// the winning placement to rebuild a full Implementation via a
// Verify-audited warm start, and enough of the search outcome (CF,
// ToolRuns, routing result) to reproduce the original SearchResult
// bit-identically.
type ImplRecord struct {
	// Feasible distinguishes a cached implementation from a cached
	// negative verdict (the whole window infeasible).
	Feasible bool
	// NoFit marks the negative verdict where the module exceeded the
	// device (ErrNoFit), which callers treat differently from a merely
	// exhausted window.
	NoFit bool

	CF       float64
	ToolRuns int

	Rect         fabric.Rect
	TargetSlices int

	CellAt     []place.Coord
	UsedSlices int
	Spread     float64
	Footprint  place.Footprint

	Route route.Result
}

// ErrRecordFormat is returned (wrapped) by UnmarshalBinary for bytes
// that are not a record MarshalBinary wrote.
var ErrRecordFormat = errors.New("pblock: malformed implementation record")

// The binary form of a record, all little-endian: one flags byte, then
// recordWords 8-byte words (the scalar ints as int64, then the floats as
// IEEE-754 bits, in the order MarshalBinary lists them), the footprint
// column count and the cell count as uint32, three int64 words per
// footprint column, and one packed (X, Y int16) pair per cell. The
// length is a function of the two counts, so a decoder can reject a
// short or long buffer before it trusts a field. implcache frames and
// checksums these bytes; the layout is versioned by its frame (format
// version 2 in internal/implcache).
const (
	flagFeasible = 1 << iota
	flagNoFit
	flagRouteFeasible
	flagsKnown = flagFeasible | flagNoFit | flagRouteFeasible

	recordWords  = 16
	recordHeader = 1 + 8*recordWords + 4 + 4
)

// recordSize is the encoded length of a record with the given counts.
func recordSize(cols, cells int) int { return recordHeader + 24*cols + 4*cells }

// MarshalBinary encodes the record in the fixed layout above.
func (r ImplRecord) MarshalBinary() ([]byte, error) {
	b := make([]byte, recordSize(len(r.Footprint.Cols), len(r.CellAt)))
	if r.Feasible {
		b[0] |= flagFeasible
	}
	if r.NoFit {
		b[0] |= flagNoFit
	}
	if r.Route.Feasible {
		b[0] |= flagRouteFeasible
	}
	le := binary.LittleEndian
	at := 1
	word := func(v uint64) {
		le.PutUint64(b[at:], v)
		at += 8
	}
	for _, v := range []int{
		r.ToolRuns, r.Rect.X0, r.Rect.Y0, r.Rect.X1, r.Rect.Y1,
		r.TargetSlices, r.UsedSlices, r.Footprint.Width, r.Footprint.Rows,
	} {
		word(uint64(int64(v)))
	}
	for _, v := range []float64{
		r.CF, r.Spread, r.Route.PeakUtil, r.Route.AvgUtil,
		r.Route.OverflowFrac, r.Route.AvgNetHPWL, r.Route.TotalWirelength,
	} {
		word(math.Float64bits(v))
	}
	le.PutUint32(b[at:], uint32(len(r.Footprint.Cols)))
	le.PutUint32(b[at+4:], uint32(len(r.CellAt)))
	at += 8
	for _, c := range r.Footprint.Cols {
		word(uint64(int64(c.Min)))
		word(uint64(int64(c.Max)))
		word(uint64(int64(c.Used)))
	}
	for _, c := range r.CellAt {
		le.PutUint16(b[at:], uint16(c.X))
		le.PutUint16(b[at+2:], uint16(c.Y))
		at += 4
	}
	return b, nil
}

// UnmarshalBinary decodes bytes written by MarshalBinary. It accepts
// exactly those: a buffer of another length than its counts call for, or
// with unknown flag bits, is an ErrRecordFormat, and what it accepts
// re-encodes to the same bytes.
func (r *ImplRecord) UnmarshalBinary(b []byte) error {
	if len(b) < recordHeader {
		return fmt.Errorf("%w: %d bytes, header needs %d", ErrRecordFormat, len(b), recordHeader)
	}
	if b[0]&^flagsKnown != 0 {
		return fmt.Errorf("%w: unknown flags %#x", ErrRecordFormat, b[0])
	}
	le := binary.LittleEndian
	cols := int(le.Uint32(b[recordHeader-8:]))
	cells := int(le.Uint32(b[recordHeader-4:]))
	// Compare in uint64: the counts come from the file and their product
	// with the element sizes must not wrap on a 32-bit int.
	if uint64(len(b)) != uint64(recordHeader)+24*uint64(cols)+4*uint64(cells) {
		return fmt.Errorf("%w: %d bytes for %d columns and %d cells", ErrRecordFormat, len(b), cols, cells)
	}
	at := 1
	word := func() uint64 {
		v := le.Uint64(b[at:])
		at += 8
		return v
	}
	*r = ImplRecord{
		Feasible: b[0]&flagFeasible != 0,
		NoFit:    b[0]&flagNoFit != 0,
	}
	r.Route.Feasible = b[0]&flagRouteFeasible != 0
	for _, p := range []*int{
		&r.ToolRuns, &r.Rect.X0, &r.Rect.Y0, &r.Rect.X1, &r.Rect.Y1,
		&r.TargetSlices, &r.UsedSlices, &r.Footprint.Width, &r.Footprint.Rows,
	} {
		*p = int(int64(word()))
	}
	for _, p := range []*float64{
		&r.CF, &r.Spread, &r.Route.PeakUtil, &r.Route.AvgUtil,
		&r.Route.OverflowFrac, &r.Route.AvgNetHPWL, &r.Route.TotalWirelength,
	} {
		*p = math.Float64frombits(word())
	}
	at += 8 // the two counts
	if cols > 0 {
		r.Footprint.Cols = make([]place.RowSpan, cols)
		for i := range r.Footprint.Cols {
			r.Footprint.Cols[i] = place.RowSpan{Min: int(int64(word())), Max: int(int64(word())), Used: int(int64(word()))}
		}
	}
	if cells > 0 {
		r.CellAt = make([]place.Coord, cells)
		for i := range r.CellAt {
			r.CellAt[i] = place.Coord{X: int16(le.Uint16(b[at:])), Y: int16(le.Uint16(b[at+2:]))}
			at += 4
		}
	}
	return nil
}

// RecordSearch converts a MinCF outcome into its cacheable record. The
// second return is false when the outcome is not cacheable (an
// unexpected error shape).
func RecordSearch(sr SearchResult, err error) (ImplRecord, bool) {
	switch {
	case err == nil && sr.Impl != nil && sr.Impl.Placement != nil:
		pl := sr.Impl.Placement
		return ImplRecord{
			Feasible:     true,
			CF:           sr.CF,
			ToolRuns:     sr.ToolRuns,
			Rect:         sr.Impl.PBlock.Rect,
			TargetSlices: sr.Impl.PBlock.TargetSlices,
			CellAt:       pl.CellAt,
			UsedSlices:   pl.UsedSlices,
			Spread:       pl.Spread,
			Footprint:    pl.Footprint,
			Route:        sr.Impl.Route,
		}, true
	case errors.Is(err, ErrNoFit):
		return ImplRecord{NoFit: true, ToolRuns: sr.ToolRuns}, true
	case err != nil:
		// No feasible CF in the window: cache the negative verdict.
		return ImplRecord{ToolRuns: sr.ToolRuns}, true
	}
	return ImplRecord{}, false
}

// Rebuild reconstitutes the SearchResult a record stands for. The stored
// placement is transplanted into a freshly built PBlock via the placer's
// warm-start path, which audits the result with Verify — a record that
// no longer matches the module or device falls back to ok=false and the
// caller re-runs the search. Negative verdicts rebuild without any
// placement work.
//
// The audit deliberately covers the placement, not the stored CF: a
// corrupted CF on an otherwise-valid record rebuilds cleanly and is only
// caught by internal/oracle's cache-equivalence checker (CheckLevel on
// the flow options), which re-implements the block from scratch and
// compares byte-for-byte.
func (r ImplRecord) Rebuild(dev *fabric.Device, m *netlist.Module, rep place.ShapeReport, s SearchConfig, cfg Config) (SearchResult, error, bool) {
	if r.NoFit {
		return SearchResult{}, fmt.Errorf("pblock: cached verdict: %w", ErrNoFit), true
	}
	if !r.Feasible {
		return SearchResult{}, errNoFeasible(s, m), true
	}
	if len(r.CellAt) != len(m.Cells) {
		return SearchResult{}, nil, false
	}
	warm := &place.Placement{
		Module:     m,
		Rect:       r.Rect,
		CellAt:     r.CellAt,
		UsedSlices: r.UsedSlices,
		Spread:     r.Spread,
		Footprint:  r.Footprint,
	}
	opts := cfg.Place
	opts.Warm = warm
	pl, err := place.Place(dev, m, rep, r.Rect, opts)
	if err != nil {
		return SearchResult{}, nil, false
	}
	return SearchResult{
		CF: r.CF,
		Impl: &Implementation{
			PBlock:    PBlock{Rect: r.Rect, TargetSlices: r.TargetSlices, CF: r.CF},
			Placement: pl,
			Route:     r.Route,
		},
		ToolRuns: r.ToolRuns,
	}, nil, true
}

// CacheOutcome says how one block-cache lookup came by its result: the
// two in-process layers (the memory map, an in-flight search) and
// ReadThrough's persistent layer. It is the one vocabulary the lookup's
// counters, trace attribute and audit read.
type CacheOutcome int

const (
	// CacheMiss: the search ran and nothing was written (no cache, an
	// outcome with no record form, or a failed store).
	CacheMiss CacheOutcome = iota
	// CacheStored: no record was found; the search ran and its record
	// was written.
	CacheStored
	// CacheStale: a record was found but no longer audits clean against
	// the module; the search ran and its record replaced the stale one.
	CacheStale
	// CacheWarm: a record rebuilt the implementation; no search ran.
	CacheWarm
	// CacheNegative: a record replayed an infeasibility verdict (the
	// returned error); no search ran.
	CacheNegative
	// CacheMem: the in-process map held the result; no search ran.
	CacheMem
	// CacheFlight: an identical search already in flight was joined
	// and its result (or error) shared; no search ran in this call.
	CacheFlight
)

// Served reports whether the cache answered: no place-and-route ran in
// this call.
func (o CacheOutcome) Served() bool { return o != CacheMiss && !o.Stored() }

// Hit reports whether the cache answered with an implementation (a
// served infeasibility verdict is not a hit).
func (o CacheOutcome) Hit() bool { return o.Served() && o != CacheNegative }

// Stored reports whether the call wrote a record.
func (o CacheOutcome) Stored() bool { return o == CacheStored || o == CacheStale }

// String names the layer that answered: "mem", "singleflight", "disk",
// "negative", or "miss" for every outcome whose search ran.
func (o CacheOutcome) String() string {
	switch o {
	case CacheMem:
		return "mem"
	case CacheFlight:
		return "singleflight"
	case CacheWarm:
		return "disk"
	case CacheNegative:
		return "negative"
	}
	return "miss"
}

// ReadThrough is the persistent layer of the block path: the record
// stored under key is rebuilt and returned (a feasible record through
// Rebuild's Verify-audited warm start, a negative one as its error);
// with no usable record, search runs and its outcome is stored for
// future processes. A served result is the original search's, ToolRuns
// included — a caller reporting the runs of this process reads
// Served. A nil cache is a plain search. s lends its Obs and Span:
// the rebuild records a cache.rebuild span, and the blockcache.disk_hit /
// .negative / .stale / .store counters move with the outcome.
func ReadThrough(c *implcache.Cache, key string, dev *fabric.Device, m *netlist.Module, rep place.ShapeReport, s SearchConfig, cfg Config, search func() (SearchResult, error)) (SearchResult, CacheOutcome, error) {
	if c == nil {
		res, err := search()
		return res, CacheMiss, err
	}
	outcome := CacheStored
	var rec ImplRecord
	if c.Get(key, &rec) {
		rsp := obs.StartChild(s.Obs, s.Span, "cache.rebuild")
		res, err, ok := rec.Rebuild(dev, m, rep, s, cfg)
		verdict := func(v string) {
			rsp.Set(obs.String("verdict", v))
			rsp.End()
		}
		switch {
		case !ok:
			verdict("stale")
			s.Obs.Add("blockcache.stale", 1)
			outcome = CacheStale
		case err != nil:
			verdict("negative")
			s.Obs.Add("blockcache.negative", 1)
			c.NoteNegative()
			return SearchResult{}, CacheNegative, err
		default:
			verdict("warm")
			s.Obs.Add("blockcache.disk_hit", 1)
			return res, CacheWarm, nil
		}
	}
	res, err := search()
	// Best effort: a failed store degrades to a future miss.
	if rec, ok := RecordSearch(res, err); !ok || c.Put(key, rec) != nil {
		return res, CacheMiss, err
	}
	s.Obs.Add("blockcache.store", 1)
	return res, outcome, err
}

// BlockKey addresses a block's implementation record by everything that
// can change it: device, optimized module content (implcache.ModuleHash),
// the CF policy's fingerprint, the search window (SearchFingerprint) and
// the oracle configuration (ConfigFingerprint).
func BlockKey(device, moduleHash, modeFP, searchFP, configFP string) string {
	return implcache.Key("block", device, moduleHash, modeFP, searchFP, configFP)
}

// SweepKey is the BlockKey of a module's minimal-CF sweep — the record a
// label and a block compiled under the min-sweep policy share.
func SweepKey(dev *fabric.Device, m *netlist.Module, s SearchConfig, cfg Config) string {
	return BlockKey(dev.Name, implcache.ModuleHash(m), Sweep().Fingerprint(), SearchFingerprint(s), ConfigFingerprint(cfg))
}

// SearchFingerprint serializes the verdict-relevant part of a search
// window: its first tick and step, as CFs, and Max (a Start off the grid
// prints its tick). Strategy and Workers are deliberately excluded: both
// strategies return the same CF on the same window, so their verdicts
// are interchangeable across processes and configurations.
func SearchFingerprint(s SearchConfig) string {
	start, step := s.Start, s.Step
	if w, err := s.window(); err == nil && w.last >= w.start {
		start, step = w.start.CF(), w.step.CF()
	}
	return fmt.Sprintf("start=%g step=%g max=%g", start, step, s.Max)
}

// ConfigFingerprint serializes the oracle configuration that determines
// feasibility verdicts: PBlock geometry plus the placer and router
// knobs. The placer's Warm pointer is transient state, not
// configuration, and is zeroed before printing.
func ConfigFingerprint(cfg Config) string {
	p := cfg.Place
	p.Warm = nil
	return fmt.Sprintf("aspect=%g ax=%d ay=%d route=%+v place=%+v",
		cfg.Aspect, cfg.AnchorX, cfg.AnchorY, cfg.Route, p)
}
