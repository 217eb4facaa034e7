package sim

import (
	"sync"
	"sync/atomic"

	"ssp/internal/sim/decode"
)

// Pool recycles machines across runs: Get rebinds a pooled machine to a new
// (config, program) via Machine.Reset — reusing its memory page frames,
// hierarchy, predictor tables, and per-thread buffers — or builds a fresh one
// when the pool is empty. A Reset machine runs bit-for-bit identically to a
// freshly constructed one (check.StrategyEquivalence enforces this),
// which is what makes pooling safe at all.
//
// Discipline: Put only machines whose run completed cleanly — the Result
// extracted, no error, no panic. A machine abandoned mid-run (cancellation,
// a panicking instrumentation hook, a failed checksum) must be dropped on
// the floor instead; Reset would scrub it, but never pooling dirty machines
// means a bug in Reset can only ever cost performance, not correctness.
// exp.Suite and serve.Server both follow this rule, and the pool's counters
// make violations visible: Puts only moves on clean completions.
//
// The zero Pool is ready to use. All methods are safe for concurrent use.
type Pool struct {
	p sync.Pool

	gets atomic.Int64 // machines handed out
	hits atomic.Int64 // ... of which were recycled rather than built
	puts atomic.Int64 // machines returned after clean completions
}

// Get returns a machine bound to (cfg, dp): a recycled one when available,
// a newly built one otherwise.
func (p *Pool) Get(cfg Config, dp *decode.Program) *Machine {
	p.gets.Add(1)
	if v := p.p.Get(); v != nil {
		p.hits.Add(1)
		m := v.(*Machine)
		_ = m.Reset(cfg, dp) // an invalid cfg fails the machine's Run with the same error
		return m
	}
	return NewPredecoded(cfg, dp)
}

// Put returns a machine to the pool. Call it only after a clean completion:
// Run/RunContext returned a verified Result. Machines from failed, cancelled,
// or panicked runs must simply be dropped.
func (p *Pool) Put(m *Machine) {
	p.puts.Add(1)
	p.p.Put(m)
}

// PoolStats is a snapshot of a Pool's reuse counters.
type PoolStats struct {
	// Gets counts machines handed out, Hits how many of those were
	// recycled (Gets-Hits were fresh builds), and Puts how many machines
	// came back after clean completions (Gets-Puts were discarded or are
	// still in use).
	Gets, Hits, Puts int64
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{Gets: p.gets.Load(), Hits: p.hits.Load(), Puts: p.puts.Load()}
}
