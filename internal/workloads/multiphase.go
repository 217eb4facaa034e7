package workloads

import "ssp/internal/ir"

// This file holds the multi-phase benchmark variants: kernels with two or
// more independent hot loops, each with its own delinquent loads. The paper's
// full benchmarks have several hot routines, which is what yields the 2-8
// p-slices per binary of Table 2; the single-loop kernels in this package
// isolate one hot region each and therefore produce one combined slice. The
// *.multi variants restore the multi-region shape: the adaptation tool must
// rank delinquent loads per region, build one independent slice per hot
// loop, and place a separate trigger in each.
//
// Every phase loop is shaped so its backward slice lands inside the paper's
// Table 2 envelope (7-15 instructions, 1-4 live-ins), and every phase keeps
// the padding nop that trigger embedding converts into chk.c.

// McfMulti is the two-phase mcf variant: the arc-pricing scan of Mcf (phase
// 1) followed by a node-potential refresh pass (phase 2) that walks a pointer
// table through two levels of randomly placed records — the shape of mcf's
// refresh_potential, its second hot routine in the full benchmark.
func McfMulti() Spec {
	return Spec{
		Name:        "mcf.multi",
		Description: "two-phase mcf: arc pricing scan plus node-potential refresh walk",
		Scale:       30000,
		TestScale:   1100,
		MinSlices:   2,
		Build:       buildMcfMulti,
	}
}

func buildMcfMulti(n int) (*ir.Program, uint64) {
	p := ir.NewProgram("main")

	// Phase 1 data: the Mcf arc/node layout on its own heaps.
	nodes := newHeap(p, heapBase, n, 64, 111)
	nodeAddr := make([]uint64, n)
	for i := range nodeAddr {
		nodeAddr[i] = nodes.alloc()
		p.SetWord(nodeAddr[i]+nodePot, uint64(i*7+3))
	}
	arcBase := nodes.end() + 0x10000
	arcs := newHeap(p, arcBase, n, 64, 112)
	rng := arcs.order
	var want uint64
	for i := 0; i < n; i++ {
		a := arcBase + uint64(i)*64
		tail, head := rng[i], rng[(i+n/2)%n]
		cost := int64(i%97) * 5
		p.SetWord(a+arcTail, nodeAddr[tail])
		p.SetWord(a+arcHead, nodeAddr[head])
		p.SetWord(a+arcCost, uint64(cost))
		red := uint64(cost) - uint64(tail*7+3) + uint64(head*7+3)
		want += red
		if int64(red) < 0 {
			want++
		}
	}

	// Phase 2 data: a sequential pointer table into a shuffled record heap;
	// each record points into a second shuffled heap holding the potentials.
	tblBase := arcBase + uint64(n)*64 + 0x10000
	recs := newHeap(p, tblBase+uint64(n)*8+0x10000, n, 64, 113)
	recAddr := make([]uint64, n)
	for i := range recAddr {
		recAddr[i] = recs.alloc()
	}
	pots := newHeap(p, recs.end()+0x10000, n, 64, 114)
	potAddr := make([]uint64, n)
	for i := range potAddr {
		potAddr[i] = pots.alloc()
		p.SetWord(potAddr[i]+16, uint64(i*11+5))
	}
	for i := 0; i < n; i++ {
		p.SetWord(tblBase+uint64(i)*8, recAddr[recs.order[i]])
		p.SetWord(recAddr[i]+8, potAddr[(i*13+7)%n])
	}
	for i := 0; i < n; i++ {
		j := (recs.order[i]*13 + 7) % n
		want += uint64(j*11 + 5)
	}

	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, int64(arcBase))              // arc cursor
	e.MovI(15, int64(arcBase+uint64(n)*64)) // limit
	e.MovI(20, 0)                           // checksum
	e.MovI(21, 0)                           // basket count
	l1 := fb.Block("price")
	l1.Nop()               // trigger padding
	l1.Mov(16, 14)         // t = arc
	l1.Ld(17, 16, arcTail) // t->tail
	l1.Ld(22, 16, arcHead) // t->head
	l1.Ld(18, 17, nodePot) // tail->potential (delinquent)
	l1.Ld(23, 22, nodePot) // head->potential (delinquent)
	l1.Ld(24, 16, arcCost) // t->cost
	l1.Sub(25, 24, 18)
	l1.Add(25, 25, 23)
	l1.Add(20, 20, 25)
	l1.CmpI(ir.CondLT, 8, 9, 25, 0)
	l1.On(8).AddI(21, 21, 1)
	l1.AddI(14, 16, 64)
	l1.Cmp(ir.CondLT, 6, 7, 14, 15)
	l1.On(6).Br("price")
	mid := fb.Block("mid")
	mid.Add(20, 20, 21)
	mid.MovI(14, int64(tblBase))
	mid.MovI(15, int64(tblBase+uint64(n)*8))
	l2 := fb.Block("refresh")
	l2.Nop()          // trigger padding
	l2.Mov(16, 14)    // cursor copy (arc-style induction)
	l2.Ld(17, 16, 0)  // rec = tbl[i]
	l2.Ld(18, 17, 8)  // rec->node (delinquent)
	l2.Ld(19, 18, 16) // node->potential (delinquent)
	l2.Add(20, 20, 19)
	l2.AddI(14, 16, 8)
	l2.Cmp(ir.CondLT, 6, 7, 14, 15)
	l2.On(6).Br("refresh")
	done := fb.Block("done")
	epilogue(done, 20)
	return p, want
}

// Em3dMulti is the two-phase em3d variant: an E-node list gather over two
// randomly placed dependency values (phase 1, the compute_nodes shape),
// then an H-node refresh sweep that strides the H heap and dereferences each
// node's peer pointer twice (phase 2, the shape of the other direction of
// the bipartite update). Integer arithmetic keeps the checksum analytic.
func Em3dMulti() Spec {
	return Spec{
		Name:        "em3d.multi",
		Description: "two-phase em3d: E-list dependency gather plus H-heap peer refresh",
		Scale:       30000,
		TestScale:   1100,
		MinSlices:   2,
		Build:       buildEm3dMulti,
	}
}

func buildEm3dMulti(n int) (*ir.Program, uint64) {
	p := ir.NewProgram("main")
	const (
		eNext = 0
		eDep0 = 8
		eDep1 = 16
		hVal  = 8
		hPeer = 24
	)
	// H nodes: shuffled, each holds a value and a peer pointer.
	hNodes := newHeap(p, heapBase, n, 64, 211)
	hAddr := make([]uint64, n)
	for i := range hAddr {
		hAddr[i] = hNodes.alloc()
		p.SetWord(hAddr[i]+hVal, uint64(i*9+2))
	}
	for i := 0; i < n; i++ {
		p.SetWord(hAddr[i]+hPeer, hAddr[(i*17+3)%n])
	}
	// E nodes: a shuffled linked list, two dependency pointers each.
	eNodes := newHeap(p, hNodes.end()+0x10000, n, 64, 212)
	eAddr := make([]uint64, n)
	for i := range eAddr {
		eAddr[i] = eNodes.alloc()
	}
	pick := eNodes.order
	var want uint64
	for i := 0; i < n; i++ {
		a := eAddr[i]
		if i+1 < n {
			p.SetWord(a+eNext, eAddr[i+1])
		}
		d0 := pick[i]
		d1 := (pick[i] + 2671) % n
		p.SetWord(a+eDep0, hAddr[d0])
		p.SetWord(a+eDep1, hAddr[d1])
		want += uint64(d0*9+2) + uint64(d1*9+2)
	}
	// Phase 2 expectation: for the node at heap slot j (address order), the
	// record is insertion i with order[i] == j; value fetched is
	// peer(peer(i))'s value.
	inv := make([]int, n)
	for i, j := range hNodes.order {
		inv[j] = i
	}
	peer := func(i int) int { return (i*17 + 3) % n }
	for j := 0; j < n; j++ {
		want += uint64(peer(peer(inv[j]))*9 + 2)
	}

	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, int64(eAddr[0])) // e-list cursor
	e.MovI(20, 0)               // checksum
	l1 := fb.Block("gather")
	l1.Nop()             // trigger padding
	l1.Ld(16, 14, eDep0) // dep pointers
	l1.Ld(17, 14, eDep1)
	l1.Ld(18, 16, hVal) // dep values (delinquent)
	l1.Ld(19, 17, hVal)
	l1.Add(20, 20, 18)
	l1.Add(20, 20, 19)
	l1.Ld(14, 14, eNext) // e = e->next
	l1.CmpI(ir.CondNE, 6, 7, 14, 0)
	l1.On(6).Br("gather")
	mid := fb.Block("mid")
	mid.MovI(14, int64(heapBase))
	mid.MovI(15, int64(heapBase+uint64(n)*64))
	l2 := fb.Block("refresh")
	l2.Nop()             // trigger padding
	l2.Mov(16, 14)       // h cursor copy
	l2.Ld(17, 16, hPeer) // h->peer (delinquent)
	l2.Ld(18, 17, hPeer) // peer->peer (delinquent)
	l2.Ld(19, 18, hVal)  // ->value (delinquent)
	l2.Add(20, 20, 19)
	l2.AddI(14, 16, 64)
	l2.Cmp(ir.CondLT, 6, 7, 14, 15)
	l2.On(6).Br("refresh")
	done := fb.Block("done")
	epilogue(done, 20)
	return p, want
}

// MstMulti is the two-phase mst variant: the hash-lookup relaxation loop of
// Mst (phase 1, interprocedural — the delinquent loads live in the callee)
// followed by an intra-procedural mate sweep over the node heap (phase 2):
// a strided scan that dereferences each node's mate pointer chain, the shape
// of mst's blue-rule pass over the vertex list.
func MstMulti() Spec {
	return Spec{
		Name:        "mst.multi",
		Description: "two-phase mst: interprocedural hash lookups plus mate-chain sweep",
		Scale:       52000,
		TestScale:   1000,
		MinSlices:   2,
		Build:       buildMstMulti,
	}
}

func buildMstMulti(n int) (*ir.Program, uint64) {
	p := ir.NewProgram("main")
	const (
		hnMate  = 24
		hnMate2 = 32
	)
	buckets := 1
	for buckets < n/3 {
		buckets *= 2
	}
	bucketBase := heapBase
	nodes := newHeap(p, bucketBase+uint64(buckets)*8+0x10000, n, 64, 511)
	nodeBase := bucketBase + uint64(buckets)*8 + 0x10000
	headOf := make([]uint64, buckets)
	valOf := make([]uint64, n)
	addrOf := make([]uint64, n)
	for k := 0; k < n; k++ {
		a := nodes.alloc()
		addrOf[k] = a
		valOf[k] = uint64(k*k%7919 + 1)
		idx := (uint64(k) * hashMult) & uint64(buckets-1)
		p.SetWord(a+hnKey, uint64(k))
		p.SetWord(a+hnVal, valOf[k])
		p.SetWord(a+hnNext, headOf[idx])
		headOf[idx] = a
		p.SetWord(bucketBase+idx*8, a)
	}
	for k := 0; k < n; k++ {
		p.SetWord(addrOf[k]+hnMate, addrOf[(k+7)%n])
		p.SetWord(addrOf[k]+hnMate2, addrOf[(k*5+11)%n])
	}
	// Phase 1 expectation: LCG lookups, as in Mst.
	var want uint64
	const la, lc = 48271, 11
	for i := 0; i < n; i++ {
		k := (i*la + lc) % n
		want += valOf[k]
	}
	// Phase 2 expectation: the node at heap slot j is insertion k with
	// order[k] == j; the sweep fetches mate2(mate(k))'s value.
	inv := make([]int, n)
	for k, j := range nodes.order {
		inv[j] = k
	}
	for j := 0; j < n; j++ {
		m := (inv[j] + 7) % n
		want += valOf[(m*5+11)%n]
	}

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
	e.MovI(14, 0)
	e.MovI(15, int64(n))
	e.MovI(16, lc%int64(n))
	e.MovI(20, 0)
	l1 := fb.Block("lookup")
	l1.Nop() // trigger padding
	l1.MovI(ir.RegArg0, int64(bucketBase))
	l1.Mov(ir.RegArg0+1, 16)
	l1.Call("hash_lookup")
	l1.Add(20, 20, ir.RegRet)
	l1.AddI(16, 16, la%int64(n))
	l1.CmpI(ir.CondGE, 8, 9, 16, int64(n))
	l1.On(8).AddI(16, 16, -int64(n))
	l1.AddI(14, 14, 1)
	l1.Cmp(ir.CondLT, 6, 7, 14, 15)
	l1.On(6).Br("lookup")
	mid := fb.Block("mid")
	mid.MovI(14, int64(nodeBase))
	mid.MovI(15, int64(nodeBase+uint64(n)*64))
	l2 := fb.Block("sweep")
	l2.Nop()              // trigger padding
	l2.Mov(22, 14)        // node cursor copy
	l2.Ld(17, 22, hnMate) // node->mate (delinquent)
	l2.Ld(18, 17, hnMate2)
	l2.Ld(19, 18, hnVal)
	l2.Add(20, 20, 19)
	l2.AddI(14, 22, 64)
	l2.Cmp(ir.CondLT, 6, 7, 14, 15)
	l2.On(6).Br("sweep")
	done := fb.Block("done")
	epilogue(done, 20)
	return p, want
}
