package fabric

import "testing"

// TestRegionBoundary pins the documented boundary contract: a row
// exactly at k·ClockRegionRows belongs to region k (the region above
// the boundary), and regions tile the rows without overlap.
func TestRegionBoundary(t *testing.T) {
	d := XC7Z045() // 350 rows, ClockRegionRows 50, 7 regions
	cases := []struct {
		row, region int
	}{
		{0, 0},   // bottom of the die is region 0
		{1, 0},   // interior row
		{49, 0},  // last row below the first boundary
		{50, 1},  // exactly on the first boundary: region above
		{51, 1},  // first interior row of region 1
		{99, 1},  // last row of region 1
		{100, 2}, // second boundary
		{149, 2}, // region 2 interior
		{150, 3}, // third boundary
		{200, 4}, // two-shard carve point of the 7-region part
		{249, 4}, // region 4 interior
		{250, 5}, // fifth boundary
		{299, 5}, // region 5 interior
		{300, 6}, // last boundary
		{349, 6}, // top row of the die
	}
	for _, c := range cases {
		if got := d.Region(c.row); got != c.region {
			t.Errorf("Region(%d) = %d, want %d", c.row, got, c.region)
		}
	}
	// Degenerate clock geometry: everything is region 0.
	flat := &Device{Rows: 10}
	for row := 0; row < flat.Rows; row++ {
		if got := flat.Region(row); got != 0 {
			t.Errorf("ClockRegionRows=0: Region(%d) = %d, want 0", row, got)
		}
	}
}

// TestShardsCarving checks the two-shard split of the xc7z045 against
// the documented contract: contiguous region bands, remainder regions
// at the bottom, no row gap or overlap, capacities summing to the
// parent.
func TestShardsCarving(t *testing.T) {
	d := XC7Z045()
	set, err := Shards(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Members) != 2 {
		t.Fatalf("got %d members, want 2", len(set.Members))
	}
	s0, s1 := set.Members[0], set.Members[1]
	// 7 regions split 4 + 3, bottom-heavy.
	if s0.Regions != 4 || s1.Regions != 3 {
		t.Errorf("region split %d+%d, want 4+3", s0.Regions, s1.Regions)
	}
	if s0.RowOffset != 0 || s0.Dev.Rows != 200 {
		t.Errorf("shard0 rows [%d, %d), want [0, 200)", s0.RowOffset, s0.RowOffset+s0.Dev.Rows)
	}
	if s1.RowOffset != 200 || s1.Dev.Rows != 150 {
		t.Errorf("shard1 rows [%d, %d), want [200, 350)", s1.RowOffset, s1.RowOffset+s1.Dev.Rows)
	}
	if s0.RowOffset+s0.Dev.Rows != s1.RowOffset {
		t.Errorf("shards not contiguous: shard0 ends at %d, shard1 starts at %d",
			s0.RowOffset+s0.Dev.Rows, s1.RowOffset)
	}
	if s1.RowOffset+s1.Dev.Rows != d.Rows {
		t.Errorf("shards do not cover the die: top shard ends at %d of %d",
			s1.RowOffset+s1.Dev.Rows, d.Rows)
	}
	// Shard views must share the parent's column list so footprint
	// compatibility transfers.
	for _, m := range set.Members {
		if len(m.Dev.Columns) != len(d.Columns) {
			t.Errorf("%s: %d columns, want %d", m.Name, len(m.Dev.Columns), len(d.Columns))
		}
		// Shard boundaries at clock regions keep the BRAM/DSP pitch:
		// the row offset must be a multiple of the tile pitch.
		if m.RowOffset%BRAMRows != 0 || m.RowOffset%DSPRows != 0 {
			t.Errorf("%s: row offset %d breaks the BRAM/DSP pitch", m.Name, m.RowOffset)
		}
	}
	// Because every band is whole clock regions and the pitch divides
	// the region height, the shard capacities sum exactly to the parent.
	sum := s0.Capacity.Add(s1.Capacity)
	if sum != d.Resources() {
		t.Errorf("capacity sum %+v != parent %+v", sum, d.Resources())
	}
}

// TestShardsErrors covers the rejection paths.
func TestShardsErrors(t *testing.T) {
	d := XC7Z020() // 3 clock regions
	if _, err := Shards(d, 0); err == nil {
		t.Error("Shards(d, 0) accepted")
	}
	if _, err := Shards(d, 4); err == nil {
		t.Error("Shards over the region count accepted")
	}
	if _, err := Shards(nil, 1); err == nil {
		t.Error("Shards(nil, 1) accepted")
	}
	set, err := Shards(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(set.Capacities()); got != 3 {
		t.Errorf("Capacities() returned %d entries, want 3", got)
	}
	if set.String() == "" {
		t.Error("empty String()")
	}
}
