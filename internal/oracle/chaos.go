package oracle

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"macroflow/internal/implcache"
	"macroflow/internal/pblock"
	"macroflow/internal/stitch"
)

// Chaos injects the fault classes the oracle's checkers exist to catch:
// corrupted persistent-cache entries, overlapping or dropped stitched
// placements, and perturbed correction factors — plus the damage the
// cache itself must turn into a miss, torn and bit-rotted record files.
// Every mutation is deterministic for a given seed, so a test that
// proves "this fault is detected" stays reproducible. Chaos is test
// tooling — nothing in the production flow constructs one.
type Chaos struct {
	rng *rand.Rand
}

// NewChaos returns a fault injector with a deterministic stream.
func NewChaos(seed int64) *Chaos {
	return &Chaos{rng: rand.New(rand.NewSource(seed))}
}

// cacheRecords lists the record files under a persistent-cache
// directory, sorted.
func cacheRecords(dir string) ([]string, error) {
	var files []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info == nil || info.IsDir() {
			return err
		}
		if filepath.Ext(path) == implcache.RecordExt {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("oracle: chaos: %w", err)
	}
	sort.Strings(files)
	return files, nil
}

// CorruptCacheEntry rewrites one persistent-cache record under dir so it
// still passes the frame check and the warm-start rebuild audit, but no
// longer matches a fresh run: the stored CF is shifted through the
// record codec while the stored rectangle and placement are kept, and
// the record is framed again with a valid checksum. This is exactly the
// corruption class only the cache-equivalence checker can see — neither
// the checksum nor the rebuild path has a way to know the CF is a lie.
// Returns the corrupted file's path.
func (c *Chaos) CorruptCacheEntry(dir string) (string, error) {
	files, err := cacheRecords(dir)
	if err != nil {
		return "", err
	}
	// Prefer feasible records: a corrupted CF on one is served through
	// the warm rebuild, which is the interesting escape path.
	for _, fi := range c.rng.Perm(len(files)) {
		path := files[fi]
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		payload, err := implcache.Unframe(data)
		if err != nil {
			continue
		}
		var rec pblock.ImplRecord
		if rec.UnmarshalBinary(payload) != nil || !rec.Feasible {
			continue
		}
		rec.CF += 0.5 // still a plausible grid-adjacent value
		out, err := rec.MarshalBinary()
		if err != nil {
			continue
		}
		if err := os.WriteFile(path, implcache.Frame(out), 0o644); err != nil {
			return "", fmt.Errorf("oracle: chaos: %w", err)
		}
		return path, nil
	}
	return "", fmt.Errorf("oracle: chaos: no feasible cache record under %s", dir)
}

// TruncateCacheEntry cuts one record file under dir short at a random
// length (possibly zero) — the torn write of a crashed or out-of-space
// process. Returns the file's path.
func (c *Chaos) TruncateCacheEntry(dir string) (string, error) {
	return c.damageCacheEntry(dir, func(data []byte) []byte {
		return data[:c.rng.Intn(len(data))]
	})
}

// FlipCacheEntryByte inverts one random byte of one record file under
// dir, header or payload — bit rot. Returns the file's path.
func (c *Chaos) FlipCacheEntryByte(dir string) (string, error) {
	return c.damageCacheEntry(dir, func(data []byte) []byte {
		data[c.rng.Intn(len(data))] ^= 0xff
		return data
	})
}

// damageCacheEntry rewrites one randomly chosen, non-empty record file
// under dir with damage applied to its bytes.
func (c *Chaos) damageCacheEntry(dir string, damage func([]byte) []byte) (string, error) {
	files, err := cacheRecords(dir)
	if err != nil {
		return "", err
	}
	for _, fi := range c.rng.Perm(len(files)) {
		data, err := os.ReadFile(files[fi])
		if err != nil || len(data) == 0 {
			continue
		}
		if err := os.WriteFile(files[fi], damage(data), 0o644); err != nil {
			return "", fmt.Errorf("oracle: chaos: %w", err)
		}
		return files[fi], nil
	}
	return "", fmt.Errorf("oracle: chaos: no cache record under %s", dir)
}

// OverlapPlacement perturbs a stitched placement so that one placed
// instance overlaps another, returning the perturbed instance index. It
// prefers moving an instance onto another instance of the same block
// (identical footprints overlap by construction); failing that it scans
// instance pairs for any origin whose spans collide. Returns ok=false
// when no overlap can be constructed (fewer than two placed instances).
func (c *Chaos) OverlapPlacement(p *stitch.Problem, origins []stitch.Origin) (int, bool) {
	var placed []int
	for ii, o := range origins {
		if o.Placed {
			placed = append(placed, ii)
		}
	}
	if len(placed) < 2 {
		return -1, false
	}
	// Same-block pairs first, in a seed-shuffled order.
	order := c.rng.Perm(len(placed))
	for _, a := range order {
		for _, b := range order {
			ia, ib := placed[a], placed[b]
			if ia == ib || p.Instances[ia].Block != p.Instances[ib].Block {
				continue
			}
			origins[ia] = origins[ib]
			return ia, true
		}
	}
	// Different blocks: move ia to ib's origin if any occupied tile
	// collides there.
	for _, a := range order {
		for _, b := range order {
			ia, ib := placed[a], placed[b]
			if ia == ib {
				continue
			}
			ba := &p.Blocks[p.Instances[ia].Block]
			bb := &p.Blocks[p.Instances[ib].Block]
			ob := origins[ib]
			if spansCollide(ba, bb, ob.X, ob.Y, ob.X, ob.Y) {
				origins[ia] = ob
				return ia, true
			}
		}
	}
	return -1, false
}

// spansCollide reports whether block a at (ax, ay) shares a tile with
// block b at (bx, by).
func spansCollide(a, b *stitch.Block, ax, ay, bx, by int) bool {
	for _, sa := range a.Spans {
		for _, sb := range b.Spans {
			if ax+sa.DX != bx+sb.DX {
				continue
			}
			loA, hiA := ay+sa.Min, ay+sa.Max
			loB, hiB := by+sb.Min, by+sb.Max
			if loA <= hiB && loB <= hiA {
				return true
			}
		}
	}
	return false
}

// DropPlacement marks one placed instance unplaced — the "lost block"
// fault the cost checker catches through its placed/unplaced recount and
// the cost recomputation. Returns the dropped instance index, or
// ok=false when nothing is placed.
func (c *Chaos) DropPlacement(origins []stitch.Origin) (int, bool) {
	var placed []int
	for ii, o := range origins {
		if o.Placed {
			placed = append(placed, ii)
		}
	}
	if len(placed) == 0 {
		return -1, false
	}
	ii := placed[c.rng.Intn(len(placed))]
	origins[ii] = stitch.Origin{}
	return ii, true
}

// DropAssignment knocks one instance out of a partition assignment
// (member -1) — the "lost block" fault of the partition plane, caught
// by the completeness check. Returns the dropped instance index, or
// ok=false for an empty assignment.
func (c *Chaos) DropAssignment(assign []int) (int, bool) {
	if len(assign) == 0 {
		return -1, false
	}
	ii := c.rng.Intn(len(assign))
	assign[ii] = -1
	return ii, true
}

// OverpackMember piles every instance onto one member — the
// over-capacity fault the per-member demand recount catches (any
// realistic multi-member problem overflows a single member). Returns
// the chosen member.
func (c *Chaos) OverpackMember(assign []int, members int) int {
	k := 0
	if members > 1 {
		k = c.rng.Intn(members)
	}
	for i := range assign {
		assign[i] = k
	}
	return k
}

// PerturbCut inflates a reported cut weight past any tolerance — the
// miscounted-cut fault the from-scratch cut recomputation catches.
func (c *Chaos) PerturbCut(cut float64) float64 {
	return cut*1.25 + 1 + float64(c.rng.Intn(8))
}

// PerturbCF lowers a claimed correction factor by one search step (one
// grid tick when step is under a tick) — the "infeasible CF" fault: a
// minimal CF shifted below the feasibility boundary must be rejected by
// the min-CF re-probe. The result is a grid tick's CF.
func (c *Chaos) PerturbCF(cf, step float64) float64 {
	return (pblock.TickOf(cf) - max(pblock.TickOf(step), 1)).CF()
}
