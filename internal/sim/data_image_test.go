package sim_test

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"ssp/internal/ir"
	"ssp/internal/sim"
	"ssp/internal/workloads"
)

// dataPin is what a program's data image shows its observers: the first 8
// bytes of the SHA-256 of its assembly text (which prints every data word,
// explicit zeros included), the number of words it holds, and the checksum
// and resident page count of a machine memory it was installed into.
type dataPin struct {
	format    string
	words     int
	checksum  uint64
	footprint int
}

// pinnedData pins dataPin for every built-in benchmark at test scale and for
// the random programs of seeds 1-5. A change to how the data image is stored
// must leave every row as it is.
var pinnedData = map[string]dataPin{
	"em3d":       {"fcbd94e12fd013da", 13199, 0xb34c1e03e7cf1cee, 58},
	"em3d.multi": {"c90259069c2d21dc", 5499, 0xa12e59f8e2d203c7, 36},
	"health":     {"d5f9cff5f1fce7c5", 4000, 0xa17247f3fceb7280, 35},
	"mcf":        {"f62bc806397d62df", 6000, 0xcfd22b85a3950d5a, 48},
	"mcf.multi":  {"cecc98882c37a28f", 7700, 0xf56d803ce0c49fe6, 75},
	"mst":        {"f5206318e211bea2", 4112, 0x9c18cd303994c919, 20},
	"mst.multi":  {"77a1f51d2588f095", 5512, 0xf66951bb9e820f34, 17},
	"rand.2p":    {"186465610db7378e", 4500, 0x2dfb78b9a958e3c4, 30},
	"rand.3p":    {"6baca8fe0818088d", 4950, 0xf960048bc037dae6, 34},
	"random/1":   {"477b8274dfba4a6b", 679, 0x6e26355b48f117c8, 7},
	"random/2":   {"6ddc71b0c228b296", 648, 0xb13bda88473f7fd8, 4},
	"random/3":   {"739943f2079e02fd", 896, 0x10258f00f61d4af8, 5},
	"random/4":   {"c283451c79e4b71d", 500, 0x9092a0e0406847d6, 4},
	"random/5":   {"8b77158f280764a8", 808, 0x891e909eab3b38f8, 5},
	"treeadd.bf": {"3cf398fb4d64a386", 4093, 0x6dd8e90acf42972d, 32},
	"treeadd.df": {"49f7d0caad8b005e", 4093, 0x6dd8e90acf42972d, 32},
	"vpr":        {"91807da61576d9f3", 6208, 0xc5a5847cc33652d1, 44},
}

func TestDataImagePinned(t *testing.T) {
	progs := map[string]*ir.Program{}
	for _, s := range workloads.All() {
		progs[s.Name], _ = s.Build(s.TestScale)
	}
	for seed := int64(1); seed <= 5; seed++ {
		progs[fmt.Sprintf("random/%d", seed)] = workloads.RandomProgram(seed)
	}
	for name, p := range progs {
		sum := sha256.Sum256([]byte(ir.Format(p)))
		img, err := ir.Link(p)
		if err != nil {
			t.Fatal(err)
		}
		m := sim.New(sim.DefaultInOrder(), img)
		got := dataPin{fmt.Sprintf("%x", sum[:8]), p.Data.Len(), m.Mem.Checksum(), m.Mem.Footprint()}
		if want, ok := pinnedData[name]; !ok || got != want {
			t.Errorf("%s: got %+v, want %+v", name, got, want)
		}
	}
}

// TestMachinesShareDataImage: machines that run concurrently over one
// linked image share its data pages, and em3d stores into its heap, so
// each run copies the pages it stores to. Under the race detector any
// write to a shared page is a race. Afterwards the image holds what it was
// built with, and every run's memory checksum is that of the same run made
// alone.
func TestMachinesShareDataImage(t *testing.T) {
	spec, err := workloads.ByName("em3d")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := spec.Build(spec.TestScale)
	pristine, _ := spec.Build(spec.TestScale)
	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	dp := sim.Predecode(img)
	var cfgs []sim.Config
	for _, cfg := range []sim.Config{sim.DefaultInOrder(), sim.DefaultOOO()} {
		cfg.UseTinyMem()
		cfgs = append(cfgs, cfg)
	}
	// Each job is one run over the image: both engines, and the functional
	// interpreter. It returns the run's memory checksum and owned pages.
	jobs := []func() (uint64, int, error){}
	for _, cfg := range cfgs {
		jobs = append(jobs, func() (uint64, int, error) {
			m := sim.NewPredecoded(cfg, dp)
			res, err := m.Run()
			if err != nil {
				return 0, 0, err
			}
			return res.MemChecksum, m.Mem.Owned(), nil
		})
	}
	jobs = append(jobs, func() (uint64, int, error) {
		r, err := sim.InterpretPredecoded(cfgs[0], dp, 1<<40)
		if err != nil {
			return 0, 0, err
		}
		return r.Mem.Checksum(), r.Mem.Owned(), nil
	})
	solo := make([]uint64, len(jobs))
	for i, job := range jobs {
		sum, owned, err := job()
		if err != nil {
			t.Fatal(err)
		}
		if owned < 2 {
			t.Fatalf("job %d owns %d pages: em3d no longer stores into its heap", i, owned)
		}
		solo[i] = sum
	}
	var wg sync.WaitGroup
	got, errs := make([]uint64, len(jobs)), make([]error, len(jobs))
	for i, job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _, errs[i] = job()
		}()
	}
	wg.Wait()
	for i := range jobs {
		if errs[i] != nil || got[i] != solo[i] {
			t.Errorf("job %d: concurrent checksum %#x (%v), alone %#x", i, got[i], errs[i], solo[i])
		}
	}
	if ir.Format(p) != ir.Format(pristine) {
		t.Fatal("the runs changed the program's data image")
	}
	// Sum is memoized on the image: re-sum a copy of its current words.
	words := p.Clone()
	a := words.Data.Addrs()[0]
	words.SetWord(a, words.Data.Word(a))
	if words.Data.Sum() != pristine.Data.Sum() || img.Data.Sum() != pristine.Data.Sum() {
		t.Fatal("the runs changed the data image's digest")
	}
}
