package implcache

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"testing"

	"macroflow/internal/cnv"
	"macroflow/internal/rtlgen"
	"macroflow/internal/synth"
)

type record struct {
	CF   float64
	Runs int
}

func (r record) MarshalBinary() ([]byte, error) {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, math.Float64bits(r.CF))
	binary.LittleEndian.PutUint64(b[8:], uint64(r.Runs))
	return b, nil
}

func (r *record) UnmarshalBinary(b []byte) error {
	if len(b) != 16 {
		return errors.New("record: want 16 bytes")
	}
	r.CF = math.Float64frombits(binary.LittleEndian.Uint64(b))
	r.Runs = int(binary.LittleEndian.Uint64(b[8:]))
	return nil
}

func TestRoundtripAndCounters(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("a", "b", "c")

	var got record
	if c.Get(key, &got) {
		t.Fatal("empty cache must miss")
	}
	if err := c.Put(key, record{CF: 1.04, Runs: 28}); err != nil {
		t.Fatal(err)
	}
	if !c.Get(key, &got) {
		t.Fatal("stored record must hit")
	}
	if got.CF != 1.04 || got.Runs != 28 {
		t.Fatalf("roundtrip corrupted record: %+v", got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("stats = %+v, want 1/1/1", st)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestCrossProcessReopen(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("device", "module", "window")
	if err := c1.Put(key, record{CF: 0.94}); err != nil {
		t.Fatal(err)
	}

	// A second Cache over the same directory models a new process.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got record
	if !c2.Get(key, &got) || got.CF != 0.94 {
		t.Fatalf("reopened cache must serve the record, got %+v", got)
	}
	if st := c2.Stats(); st.Hits != 1 || st.Stores != 0 {
		t.Fatalf("reopened stats = %+v, want fresh counters with 1 hit", st)
	}
}

// TestCorruptFileIsMiss: whatever is wrong with a record file — cut
// short anywhere, one byte flipped anywhere, another format version, the
// JSON of a version-1 directory, a payload the value rejects — the
// lookup is a counted miss, and the next Put repairs the record.
func TestCorruptFileIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("x")
	if err := c.Put(key, record{CF: 2, Runs: 7}); err != nil {
		t.Fatal(err)
	}
	file := c.path(key)
	good, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var damaged [][]byte
	for n := 0; n < len(good); n++ {
		damaged = append(damaged, good[:n]) // truncated at every length
		flipped := append([]byte(nil), good...)
		flipped[n] ^= 0x01
		damaged = append(damaged, flipped) // every byte, header included
	}
	otherVersion := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(otherVersion[4:], recordVersion+1)
	damaged = append(damaged,
		otherVersion,
		append(append([]byte(nil), good...), 0), // trailing garbage
		[]byte(`{"CF":2,"Runs":7}`),             // a version-1 record
		Frame([]byte("short")),                  // intact frame, payload the value rejects
	)
	for i, data := range damaged {
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := c.Stats()
		var got record
		if c.Get(key, &got) {
			t.Fatalf("damaged record %d (%d of %d bytes) was served: %+v", i, len(data), len(good), got)
		}
		if after := c.Stats(); after.Misses != before.Misses+1 || after.Hits != before.Hits {
			t.Fatalf("damaged record %d: stats %+v -> %+v, want one more miss", i, before, after)
		}
	}
	if err := c.Put(key, record{CF: 2, Runs: 7}); err != nil {
		t.Fatal(err)
	}
	var got record
	if !c.Get(key, &got) || got != (record{CF: 2, Runs: 7}) {
		t.Fatalf("record not repaired by Put: %+v", got)
	}
}

// TestPlainValuesAreRejected: a value without a binary encoding is an
// error on Put and a miss on Get — there is one record codec.
func TestPlainValuesAreRejected(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	type plain struct{ CF float64 }
	if err := c.Put(Key("p"), plain{CF: 1}); err == nil {
		t.Error("Put accepted a value without MarshalBinary")
	}
	if err := c.Put(Key("p"), record{CF: 1}); err != nil {
		t.Fatal(err)
	}
	var got plain
	if c.Get(Key("p"), &got) {
		t.Error("Get filled a value without UnmarshalBinary")
	}
}

func TestKeyIsLengthPrefixed(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Fatal("keys must not collide by concatenation")
	}
	if Key("a", "b") != Key("a", "b") {
		t.Fatal("keys must be deterministic")
	}
	if Key("a") == Key("a", "") {
		t.Fatal("trailing empty part must change the key")
	}
}

func TestModuleHashContentAddressed(t *testing.T) {
	build := func(name string, seed int64) string {
		m, err := synth.Elaborate(rtlgen.Spec{
			Name: name,
			Components: []rtlgen.Component{
				rtlgen.RandomLogic{LUTs: 80, Fanin: 4, Depth: 3, Seed: seed},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := synth.Optimize(m); err != nil {
			t.Fatal(err)
		}
		return ModuleHash(m)
	}
	if build("alpha", 1) != build("beta", 1) {
		t.Error("renaming a module must not change its hash")
	}
	if build("alpha", 1) == build("alpha", 2) {
		t.Error("structurally different modules must hash differently")
	}
}

// TestModuleHashPinned pins the hash of two cnvW1A1 block types to the
// values every cache directory written so far is keyed by. A failure
// means the content stream (netlist.Module.WriteContent) or the
// synthesis of these blocks changed, and every persisted record with
// it: that must be a decision, not a side effect.
func TestModuleHashPinned(t *testing.T) {
	d := cnv.CNVW1A1()
	for name, want := range map[string]string{
		"weights_14": "2c31d6089b3ca0529bd62ff6c7ede24b249276c5a2251b2b46667ff2b870248f",
		"mvau_l34":   "8020e664c6b6ec92e4400a366cede4295fe8363178347d6f40503ae90112740f",
	} {
		m, err := d.Module(d.TypeIndex(name))
		if err != nil {
			t.Fatal(err)
		}
		if got := ModuleHash(m); got != want {
			t.Errorf("ModuleHash(%s) = %s, want %s", name, got, want)
		}
	}
}

// TestStatsSurviveReload: the lifetime counters persist in the
// stats.json sidecar across Open calls, while Stats() stays
// process-local (zero at every Open).
func TestStatsSurviveReload(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("block", "a")
	var got record
	if c.Get(key, &got) {
		t.Fatal("unexpected hit")
	}
	if err := c.Put(key, record{CF: 1.1}); err != nil {
		t.Fatal(err)
	}
	if !c.Get(key, &got) {
		t.Fatal("expected hit")
	}
	c.NoteNegative()
	if err := c.FlushStats(); err != nil {
		t.Fatal(err)
	}
	want := Stats{Hits: 1, Misses: 1, Stores: 1, Negatives: 1}
	if st := c.Stats(); st != want {
		t.Fatalf("first-process Stats = %+v, want %+v", st, want)
	}
	if lt := c.LifetimeStats(); lt != want {
		t.Fatalf("first-process LifetimeStats = %+v, want %+v", lt, want)
	}

	// A fresh Open (new process) starts Stats at zero but carries the
	// lifetime baseline forward.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st != (Stats{}) {
		t.Fatalf("reopened Stats = %+v, want zero", st)
	}
	if lt := c2.LifetimeStats(); lt != want {
		t.Fatalf("reopened LifetimeStats = %+v, want %+v", lt, want)
	}
	if !c2.Get(key, &got) {
		t.Fatal("expected hit after reopen")
	}
	if err := c2.FlushStats(); err != nil {
		t.Fatal(err)
	}
	want.Hits = 2
	if lt := c2.LifetimeStats(); lt != want {
		t.Fatalf("accumulated LifetimeStats = %+v, want %+v", lt, want)
	}
	// The sidecar must not count as a cached record.
	if n := c2.Len(); n != 1 {
		t.Fatalf("Len() = %d, want 1 (stats.json excluded)", n)
	}
}

// TestKilledProcessStatsConsistent is the regression test for daemon
// drain: a process that dies without calling FlushStats must still
// leave a consistent sidecar behind. Stores flush eagerly on every Put,
// and lookup counters auto-flush at most statsFlushEvery events apart —
// so a reopened cache reports every store and all but a bounded tail of
// lookups, and never counts anything that did not happen.
func TestKilledProcessStatsConsistent(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got record
	c.Get(Key("k0"), &got) // miss
	if err := c.Put(Key("k0"), record{CF: 1.0}); err != nil {
		t.Fatal(err)
	}
	c.Get(Key("k0"), &got) // hit, after the Put's eager flush
	// The process is now "killed": c is dropped with no FlushStats.

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lt := re.LifetimeStats()
	if lt.Stores != 1 {
		t.Errorf("reopened Stores = %d, want 1 (Put flushes eagerly)", lt.Stores)
	}
	if lt.Misses != 1 {
		t.Errorf("reopened Misses = %d, want 1 (miss happened before the Put flush)", lt.Misses)
	}
	// The hit after the last flush is the bounded lost tail.
	if lt.Hits > 1 {
		t.Errorf("reopened Hits = %d — the sidecar counts events that never flushed", lt.Hits)
	}

	// Enough unflushed lookups trip the automatic flush, bounding the
	// tail a kill can lose even with no Put in sight.
	for i := 0; i < statsFlushEvery; i++ {
		re.Get(Key("absent", string(rune('a'+i%26)), string(rune('0'+i/26))), &got)
	}
	re2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lt2 := re2.LifetimeStats(); lt2.Misses < statsFlushEvery {
		t.Errorf("after %d unflushed misses a reopen sees Misses = %d; the auto-flush cap leaked",
			statsFlushEvery, lt2.Misses)
	}
}
