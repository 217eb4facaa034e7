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

// TestTableSharedFrames: Set maps shared and owned frames and reports what
// it displaces, Entry and Shared tell them apart, and Clear empties the
// table, handing over only the owned frames.
func TestTableSharedFrames(t *testing.T) {
	var tab Table[Page]
	img := []*Page{new(Page), new(Page)}
	idxs := []uint64{3, rootMax << leafBits} // one radix page, one outlier
	for i, idx := range idxs {
		if old, _ := tab.Set(idx, img[i], true); old != nil {
			t.Fatalf("page %d: displaced %p from an empty table", idx, old)
		}
	}
	own := tab.Ensure(9)
	if tab.Len() != 3 || tab.Shared() != 2 {
		t.Fatalf("Len %d, Shared %d; want 3, 2", tab.Len(), tab.Shared())
	}
	for i, idx := range idxs {
		if p, shared := tab.Entry(idx); p != img[i] || !shared || tab.Lookup(idx) != p {
			t.Fatalf("page %d: Entry = %p, %v; want the shared frame", idx, p, shared)
		}
	}
	if p, shared := tab.Entry(9); p != own || shared {
		t.Fatal("Ensure's frame reads as shared")
	}
	// Owning a shared page displaces the shared frame; sharing over an
	// owned page hands the owned one back.
	mine := new(Page)
	if old, shared := tab.Set(3, mine, false); old != img[0] || !shared {
		t.Fatal("Set over a shared frame did not report it")
	}
	if old, shared := tab.Set(9, img[0], true); old != own || shared {
		t.Fatal("Set over an owned frame did not report it")
	}
	if tab.Len() != 3 || tab.Shared() != 2 {
		t.Fatalf("after swaps: Len %d, Shared %d; want 3, 2", tab.Len(), tab.Shared())
	}
	var freed []*Page
	tab.Clear(func(p *Page) { freed = append(freed, p) })
	if len(freed) != 1 || freed[0] != mine {
		t.Fatalf("Clear handed over %d frames, want only the owned one", len(freed))
	}
	if tab.Len() != 0 || tab.Shared() != 0 || tab.Lookup(3) != nil || tab.Lookup(rootMax<<leafBits) != nil {
		t.Fatal("Clear left pages resident")
	}
	if tab.Leaves() != 1 {
		t.Fatalf("Clear dropped the radix levels: %d leaves", tab.Leaves())
	}
	if n := testing.AllocsPerRun(10, func() {
		tab.Set(3, img[0], true)
		tab.Set(9, mine, false)
		tab.Clear(func(*Page) {})
	}); n != 0 {
		t.Fatalf("Set and Clear on a warm table allocate %v times", n)
	}
}
