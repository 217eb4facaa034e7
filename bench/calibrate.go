package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The host is a shared 2-CPU machine whose speed drifts by up to 2x over
// minutes as neighbours come and go, mostly as slower execution and at
// times as CPU time stolen by the hypervisor. Host-time metrics are
// therefore reported in reference seconds: host seconds scaled by calibRef
// over the median time of a fixed calibration sample taken around and
// between the measured segments of the same unit. A sample runs, on both
// CPUs, two kinds of host code the workloads spend their time in: a
// switch-dispatched register-machine interpreter (the simulator's core)
// and table, sort and map traffic (the pipeline's bookkeeping). The
// calibration code is the standard library and this file, so no change to
// the repository can speed it up or slow it down, and a change to the
// program still moves the scaled metrics.

// calibRef is the median duration of one calibration sample on the 2-CPU
// host the baselines were taken on, so that a reference second is about a
// host second there.
const calibRef = 0.020

// calibEdge is how many samples bracket each unit on either side (one in
// smoke runs, whose times are not compared).
const calibEdge = 6

// calibIters is the interpreted loop's trip count per goroutine.
const calibIters = 300_000

var calibSink atomic.Uint64

// calibOp is one instruction of the calibration loop's register machine.
type calibOp struct {
	op      uint8
	d, a, b uint8
	imm     int64
}

const (
	cAdd = iota
	cAddI
	cXorI
	cShlI
	cLd
	cSt
	cMul
	cBltN // branch to imm while r[a] < the trip count
	cBodd // branch to imm when r[a] is odd: data-dependent
	cHalt
)

// calibProg walks a 1024-word table with loads, stores, a multiply and a
// data-dependent branch, ten to eleven instructions per trip.
var calibProg = []calibOp{
	{cAddI, 1, 1, 0, 1},      // 0: i++
	{cAdd, 2, 2, 1, 0},       // 1
	{cXorI, 3, 2, 0, 0x5bd1}, // 2
	{cShlI, 4, 3, 0, 3},      // 3
	{cLd, 5, 4, 0, 0},        // 4: r5 = tab[r4]
	{cBodd, 0, 5, 0, 7},      // 5: odd values skip the add
	{cAdd, 6, 6, 5, 0},       // 6
	{cMul, 7, 6, 1, 0},       // 7
	{cSt, 0, 4, 7, 0},        // 8: tab[r4] = r7
	{cBltN, 0, 1, 0, 0},      // 9
	{cHalt, 0, 0, 0, 0},
}

// interpWork interprets calibProg.
func interpWork() uint64 {
	var r [8]int64
	var tab [1024]int64
	for pc := 0; ; {
		in := &calibProg[pc]
		pc++
		switch in.op {
		case cAdd:
			r[in.d] = r[in.a] + r[in.b]
		case cAddI:
			r[in.d] = r[in.a] + in.imm
		case cXorI:
			r[in.d] = r[in.a] ^ in.imm
		case cShlI:
			r[in.d] = r[in.a] << uint(in.imm)
		case cLd:
			r[in.d] = tab[r[in.a]&1023]
		case cSt:
			tab[r[in.a]&1023] = r[in.b]
		case cMul:
			r[in.d] = r[in.a] * r[in.b]
		case cBltN:
			if r[in.a] < calibIters {
				pc = int(in.imm)
			}
		case cBodd:
			if r[in.a]&1 == 1 {
				pc = int(in.imm)
			}
		case cHalt:
			return uint64(r[6] ^ r[7])
		}
	}
}

// tableWork walks a table, sorts and updates a map.
func tableWork() uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	tab := make([]uint64, 1<<13)
	for i := 0; i < 600_000; i++ {
		j := next() & (1<<13 - 1)
		if tab[j]&1 == 0 {
			tab[j] += x
		} else {
			tab[j] ^= x >> 3
		}
	}
	a := make([]int, 40_000)
	for i := range a {
		a[i] = int(next() >> 1)
	}
	sort.Ints(a)
	m := make(map[uint64]uint64)
	var s uint64
	for i := 0; i < 100_000; i++ {
		k := next()
		m[k&0x3fff] += k
		s += m[(k>>20)&0x3fff]
	}
	return s + tab[7] + uint64(a[len(a)/2])
}

// calibSample runs each kind of calibration work on both CPUs at once and
// returns the mean goroutine time summed over the kinds, in seconds.
func calibSample() float64 {
	var total atomic.Int64
	for _, work := range []func() uint64{interpWork, tableWork} {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				calibSink.Add(work())
				total.Add(int64(time.Since(t0)))
			}()
		}
		wg.Wait()
	}
	return time.Duration(total.Load() / 2).Seconds()
}

// meter times the measured segments of one unit and collects the
// calibration samples taken around and between them.
type meter struct {
	edge    int // samples on either side of the unit
	samples []float64
	raw     time.Duration
}

func newMeter(edge int) *meter {
	m := &meter{edge: edge}
	m.calibrate(edge)
	return m
}

func (m *meter) calibrate(n int) {
	for i := 0; i < n; i++ {
		m.samples = append(m.samples, calibSample())
	}
}

// time runs one measured segment and returns its host duration.
func (m *meter) time(f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	m.raw += d
	return d
}

// scale closes the unit with its trailing samples and returns reference
// seconds per host second.
func (m *meter) scale() float64 {
	m.calibrate(m.edge)
	return calibRef / median(m.samples)
}

// warmCalibration runs one sample whose time is discarded: a fresh process
// pays page faults and heap growth on its first sample.
func warmCalibration() {
	calibSample()
	runtime.GC()
}
