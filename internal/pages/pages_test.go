package pages

import (
	"slices"
	"testing"
)

// TestTableOrderAndCounts: Each visits radix and outlier pages in one
// ascending order, and Len and Leaves count what Ensure allocated.
func TestTableOrderAndCounts(t *testing.T) {
	var tab Table[Page]
	idxs := []uint64{1 << 40, 5, 1 << leafBits, 3, rootMax<<leafBits - 1, rootMax << leafBits}
	for _, idx := range idxs {
		tab.Ensure(idx)[0] = idx
	}
	tab.Ensure(5) // already resident
	var got []uint64
	tab.Each(func(idx uint64, p *Page) {
		if p[0] != idx || tab.Lookup(idx) != p {
			t.Errorf("page %d holds %d", idx, p[0])
		}
		got = append(got, idx)
	})
	want := slices.Clone(idxs)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("Each visited %v, want %v", got, want)
	}
	// Leaves: {3, 5}, {1<<leafBits} and the radix's last; the other two
	// pages are outliers.
	if tab.Len() != len(idxs) || tab.Leaves() != 3 {
		t.Fatalf("Len %d, Leaves %d; want %d, 3", tab.Len(), tab.Leaves(), len(idxs))
	}
	if tab.Lookup(4) != nil || tab.Lookup(1<<41) != nil {
		t.Fatal("Lookup found a page never ensured")
	}
}

// TestCopyReusesFrames: Copy fills a page of dst for every page of src, and
// copying again into the same frames allocates nothing.
func TestCopyReusesFrames(t *testing.T) {
	var src Table[[2]uint64]
	for _, idx := range []uint64{7, 1 << 20, rootMax<<leafBits - 1} {
		src.Ensure(idx)[0] = idx + 1
	}
	var dst Table[Page]
	fill := func(d *Page, s *[2]uint64) { d[0] = s[0] }
	Copy(&dst, &src, fill)
	if dst.Len() != 3 || dst.Lookup(1 << 20)[0] != 1<<20+1 || dst.Lookup(rootMax<<leafBits - 1)[0] != rootMax<<leafBits {
		t.Fatal("Copy lost a page")
	}
	if n := testing.AllocsPerRun(10, func() { Copy(&dst, &src, fill) }); n != 0 {
		t.Fatalf("a second Copy allocated %v times", n)
	}
}
