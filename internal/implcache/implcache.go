// Package implcache is a content-addressed on-disk cache for
// implementation verdicts and search results. Records are keyed by a
// SHA-256 over caller-supplied key parts (device name, module content
// hash, search window, placer/router configuration fingerprint), so a
// record can never be served for inputs that differ in any way that
// could change the verdict: any drift in the key parts addresses a
// different file.
//
// A record is the value's own binary encoding (encoding.BinaryMarshaler)
// in a frame that carries its length and CRC-32 (see Frame); a file that
// is torn, truncated, bit-rotted or of another format version fails the
// frame check and is a miss before any of its fields is decoded.
//
// The cache is safe for concurrent use within one process (atomic
// counters, rename-into-place writes) and across processes (writers
// produce complete files via temp-file + rename).
package implcache

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"macroflow/internal/netlist"
)

// Stats are cache counters: hits, misses, stores, and how many of the
// hits served a cached negative verdict (whole search window
// infeasible).
type Stats struct {
	Hits      uint64
	Misses    uint64
	Stores    uint64
	Negatives uint64
}

func (s Stats) add(o Stats) Stats {
	return Stats{
		Hits:      s.Hits + o.Hits,
		Misses:    s.Misses + o.Misses,
		Stores:    s.Stores + o.Stores,
		Negatives: s.Negatives + o.Negatives,
	}
}

// statsFile is the lifetime-counter sidecar at the cache root. Records
// live in two-character subdirectories under RecordExt, so the name can
// never collide with one.
const statsFile = "stats.json"

// statsFlushEvery bounds how many counted events may pass between
// automatic flushes of the lifetime counters, so a crashed process
// loses at most a small tail.
const statsFlushEvery = 64

// Cache is one on-disk cache directory.
type Cache struct {
	dir    string
	hits   atomic.Uint64
	misses atomic.Uint64
	stores atomic.Uint64
	negs   atomic.Uint64

	// base is the lifetime baseline loaded from statsFile at Open;
	// LifetimeStats reports base plus this process's counters.
	base    Stats
	unsaved atomic.Uint64 // events since the last stats flush
	flushMu sync.Mutex
}

// Open returns a cache rooted at dir, creating the directory if needed.
// Lifetime counters persisted by previous processes (see LifetimeStats)
// are loaded from the cache's stats sidecar.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("implcache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("implcache: %w", err)
	}
	c := &Cache{dir: dir}
	// An unreadable or unparsable sidecar degrades to a zero baseline.
	if data, err := os.ReadFile(filepath.Join(dir, statsFile)); err == nil {
		_ = json.Unmarshal(data, &c.base)
	}
	return c, nil
}

// Stats returns this process's hit/miss/store/negative counters (zero
// at every Open). For counters that survive reopens and processes, see
// LifetimeStats.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Stores:    c.stores.Load(),
		Negatives: c.negs.Load(),
	}
}

// LifetimeStats returns the cache directory's cumulative counters: the
// persisted baseline from previous opens plus this process's activity.
// Persistence is best effort — counters are flushed on every store, on
// FlushStats, and at most statsFlushEvery events apart; concurrent
// processes on one directory overwrite last-writer-wins, so lifetime
// counts are approximate under cross-process contention (record
// correctness is unaffected).
func (c *Cache) LifetimeStats() Stats {
	return c.base.add(c.Stats())
}

// NoteNegative counts a hit that served a cached negative verdict.
// Callers invoke it after Get returns a record they recognize as
// negative; the cache itself cannot tell verdict shapes apart.
func (c *Cache) NoteNegative() {
	c.negs.Add(1)
	c.countEvent()
}

// FlushStats persists the lifetime counters to the cache directory now.
func (c *Cache) FlushStats() error {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	c.unsaved.Store(0)
	data, err := json.Marshal(c.LifetimeStats())
	if err != nil {
		return fmt.Errorf("implcache: %w", err)
	}
	return writeAtomic(filepath.Join(c.dir, statsFile), ".tmp-stats-*", data)
}

// writeAtomic writes data to path through a temporary file (named by
// pattern, in path's directory) renamed over it, so readers see either
// the old file or the complete new one, never a torn write. The
// temporary file is removed on any failure.
func writeAtomic(path, pattern string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), pattern)
	if err != nil {
		return fmt.Errorf("implcache: %w", err)
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("implcache: %w", err)
	}
	return nil
}

// countEvent tallies one stat-changing event and flushes the sidecar
// when enough have accumulated.
func (c *Cache) countEvent() {
	if c.unsaved.Add(1) >= statsFlushEvery {
		_ = c.FlushStats()
	}
}

// Key derives the content address from the given parts. Parts are
// length-prefixed before hashing so no two distinct part lists collide
// by concatenation.
func Key(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ModuleHash fingerprints a module's content, independent of its name:
// renaming a module must not fake a change, but any structural change
// (cells, nets, control sets, outputs) must. It is the SHA-256 of
// netlist.Module.WriteContent's byte stream, the same stream the placer
// derives its default seed from.
func ModuleHash(m *netlist.Module) string {
	h := sha256.New()
	_ = m.WriteContent(h) // a hash.Hash never returns a write error
	return hex.EncodeToString(h.Sum(nil))
}

// RecordExt is the file extension of a record. Directories written
// before format version 2 hold <key>.json files, which are never opened:
// such a directory is simply cold (delete it to reclaim the space).
const RecordExt = ".rec"

// recordVersion is the version of the record format: the frame below
// and the payload encodings of the values stored in it. Version 1 was
// the unframed JSON of the first cache directories.
const recordVersion = 2

// A record file is a frameSize-byte header — the magic, recordVersion,
// the payload length and the payload's CRC-32 (IEEE), the three numbers
// as little-endian uint32 — followed by the payload.
const (
	frameMagic = "MFIR"
	frameSize  = 16
)

// ErrFrame is returned (wrapped) by Unframe for bytes that are not a
// complete, intact frame of the current version.
var ErrFrame = errors.New("implcache: bad record frame")

// Frame returns payload wrapped in a record frame.
func Frame(payload []byte) []byte {
	b := make([]byte, frameSize+len(payload))
	copy(b, frameMagic)
	binary.LittleEndian.PutUint32(b[4:], recordVersion)
	binary.LittleEndian.PutUint32(b[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[12:], crc32.ChecksumIEEE(payload))
	copy(b[frameSize:], payload)
	return b
}

// Unframe checks data's magic, version, length and checksum and returns
// the payload (a slice of data).
func Unframe(data []byte) ([]byte, error) {
	if len(data) < frameSize || string(data[:4]) != frameMagic {
		return nil, fmt.Errorf("%w: no header", ErrFrame)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != recordVersion {
		return nil, fmt.Errorf("%w: format version %d, want %d", ErrFrame, v, recordVersion)
	}
	payload := data[frameSize:]
	if n := binary.LittleEndian.Uint32(data[8:]); uint64(n) != uint64(len(payload)) {
		return nil, fmt.Errorf("%w: %d payload bytes, header says %d", ErrFrame, len(payload), n)
	}
	if binary.LittleEndian.Uint32(data[12:]) != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrFrame)
	}
	return payload, nil
}

// path maps a key to its record file, sharded by the first byte to keep
// directory listings manageable for large datasets.
func (c *Cache) path(key string) string {
	if len(key) < 2 {
		key = "00" + key
	}
	return filepath.Join(c.dir, key[:2], key+RecordExt)
}

// Get loads the record stored under key into v, which must implement
// encoding.BinaryUnmarshaler. A missing file, a file that fails the
// frame check (truncated, torn, bit-rotted, another version) and a
// payload v rejects all count as a miss.
func (c *Cache) Get(key string, v any) bool {
	if c.load(key, v) != nil {
		c.misses.Add(1)
		c.countEvent()
		return false
	}
	c.hits.Add(1)
	c.countEvent()
	return true
}

func (c *Cache) load(key string, v any) error {
	u, ok := v.(encoding.BinaryUnmarshaler)
	if !ok {
		return fmt.Errorf("implcache: %T does not implement encoding.BinaryUnmarshaler", v)
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return err
	}
	payload, err := Unframe(data)
	if err != nil {
		return err
	}
	return u.UnmarshalBinary(payload)
}

// Put stores v, which must implement encoding.BinaryMarshaler, under
// key. The write is atomic: concurrent readers see either the old record
// or the complete new one, never a torn file.
func (c *Cache) Put(key string, v any) error {
	m, ok := v.(encoding.BinaryMarshaler)
	if !ok {
		return fmt.Errorf("implcache: %T does not implement encoding.BinaryMarshaler", v)
	}
	payload, err := m.MarshalBinary()
	if err != nil {
		return fmt.Errorf("implcache: %w", err)
	}
	data := Frame(payload)
	p := c.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("implcache: %w", err)
	}
	if err := writeAtomic(p, ".tmp-*", data); err != nil {
		return err
	}
	c.stores.Add(1)
	// Stores are rare relative to lookups; flush eagerly so a fresh
	// process's Stores count survives even a crash right after Put.
	_ = c.FlushStats()
	return nil
}

// Len counts the records currently on disk (test/diagnostic helper).
func (c *Cache) Len() int {
	n := 0
	filepath.Walk(c.dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info != nil && !info.IsDir() &&
			filepath.Ext(info.Name()) == RecordExt {
			n++
		}
		return nil
	})
	return n
}
