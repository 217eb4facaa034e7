package workloads

import "ssp/internal/ir"

// Mst reproduces the Olden mst hot path: Bellman-Ford relaxation where every
// edge weight comes from a hash-table lookup. HashLookup hashes the key,
// loads the bucket head, and walks the collision chain comparing keys — the
// bucket and chain loads are the delinquent ones, and since they live in the
// callee, mst contributes an interprocedural slice (Table 2).
//
//	for i in 0..n: sum += HashLookup(table, key(i))
//
// key(i) is a linear-congruential sequence, so the address chain's root is
// computable arithmetic — prefetchable far ahead.
func Mst() Spec {
	return Spec{
		Name:        "mst",
		Description: "minimum spanning tree: hash-table edge-weight lookups",
		Scale:       60000,
		TestScale:   1200,
		Build:       buildMst,
	}
}

const (
	hnNext = 0
	hnKey  = 8
	hnVal  = 16
	// hashMult is Knuth's multiplicative constant.
	hashMult = 2654435761
)

func buildMst(n int) (*ir.Program, uint64) {
	p := ir.NewProgram("main")
	// Buckets: n/3 rounded up to a power of two.
	buckets := 1
	for buckets < n/3 {
		buckets *= 2
	}
	bucketBase := heapBase
	nodes := newHeap(p, bucketBase+uint64(buckets)*8+0x10000, n, 64, 501)
	// Insert keys 0..n-1 with values derived from the key.
	headOf := make([]uint64, buckets)
	valOf := make([]uint64, n)
	for k := 0; k < n; k++ {
		a := nodes.alloc()
		valOf[k] = uint64(k*k%7919 + 1)
		idx := (uint64(k) * hashMult) & uint64(buckets-1)
		p.SetWord(a+hnKey, uint64(k))
		p.SetWord(a+hnVal, valOf[k])
		p.SetWord(a+hnNext, headOf[idx])
		headOf[idx] = a
		p.SetWord(bucketBase+idx*8, a)
	}
	// Lookup sequence: key(i) = (i*a + c) mod n — all present.
	var want uint64
	const la, lc = 48271, 11
	for i := 0; i < n; i++ {
		k := (i*la + lc) % n
		want += valOf[k]
	}

	// HashLookup(r32 = bucketBase, r33 = key) -> r8.
	hf := ir.NewFunc(p, "hash_lookup")
	hf.F.NumFormals = 2
	he := hf.Block("entry")
	he.MulI(40, ir.RegArg0+1, hashMult)
	he.AndI(40, 40, int64(buckets-1))
	he.ShlI(40, 40, 3)
	he.Add(40, 40, ir.RegArg0)
	he.Ld(41, 40, 0) // bucket head (delinquent)
	walk := hf.Block("walk")
	walk.Ld(42, 41, hnKey) // chain key (delinquent)
	walk.Cmp(ir.CondEQ, 6, 7, 42, ir.RegArg0+1)
	walk.On(6).Br("found")
	next := hf.Block("next")
	next.Ld(41, 41, hnNext) // chain next (delinquent)
	next.Br("walk")
	found := hf.Block("found")
	found.Ld(ir.RegRet, 41, hnVal)
	found.Ret(0)

	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, 0)           // i -> key via LCG
	e.MovI(15, int64(n))    // limit
	e.MovI(16, lc%int64(n)) // key accumulator: key = (key + la) mod n (incremental LCG)
	e.MovI(20, 0)
	loop := fb.Block("loop")
	loop.Nop() // trigger padding
	loop.MovI(ir.RegArg0, int64(bucketBase))
	loop.Mov(ir.RegArg0+1, 16)
	loop.Call("hash_lookup")
	loop.Add(20, 20, ir.RegRet)
	// key = (key + la) mod n, branch-free: key += la; if key >= n, key -= n.
	loop.AddI(16, 16, la%int64(n))
	loop.CmpI(ir.CondGE, 8, 9, 16, int64(n))
	loop.On(8).AddI(16, 16, -int64(n))
	loop.AddI(14, 14, 1)
	loop.Cmp(ir.CondLT, 6, 7, 14, 15)
	loop.On(6).Br("loop")
	done := fb.Block("done")
	epilogue(done, 20)
	return p, want
}
