package main

import (
	"errors"
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/simnet"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples.
const minTail = 10

// percentile returns the nearest-rank p-quantile of sorted samples and
// whether at least minTail samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minTail
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	v, _ := percentile(sortedCopy(xs), 0.5)
	return v
}

// opKinds are the core.Mount calls the workloads make, in report order.
var opKinds = []string{"lookup", "getattr", "setattr", "read", "write", "create", "mkdir", "readdir", "remove"}

// opSpans names each op kind's span, built once so that an untraced op
// allocates nothing for it.
var opSpans = func() map[string]string {
	m := map[string]string{}
	for _, k := range opKinds {
		m[k] = "core." + k
	}
	return m
}()

// kindSamples holds one op kind's simulated (ms) and wall (µs) latencies.
type kindSamples struct{ sim, wall []float64 }

// meter accumulates a run's end-to-end numbers. The simulated window is a
// fixed prefix of the workload's rounds, so its numbers depend only on the
// seed; the wall window is every round, until the run's time is up.
type meter struct {
	off     bool // set-up: nothing is recorded
	inSim   bool // the simulated window is still open
	probing bool // a failover probe: its simulated time is kept apart

	probeSim simnet.Cost

	ops, failed int64
	opWall      time.Duration
	opCPU       time.Duration // process CPU time spent inside ops
	wallUS      []float64

	simOps    int64
	simFailed int64
	simMS     []float64
	simOpSum  simnet.Cost
	simExtra  simnet.Cost // modeled time besides ops (the MAB's CPU phases)
	simRepair simnet.Cost
	userBytes int64

	kinds map[string]*kindSamples // per op kind, traced runs only
}

func newMeter(perKind bool) *meter {
	m := &meter{inSim: true}
	if perKind {
		m.kinds = map[string]*kindSamples{}
		for _, k := range opKinds {
			m.kinds[k] = &kindSamples{}
		}
	}
	return m
}

func (m *meter) record(kind string, wall, cpu time.Duration, cost simnet.Cost, err error) {
	if m.off {
		return
	}
	m.ops++
	m.opWall += wall
	m.opCPU += cpu
	us := float64(wall) / 1e3
	m.wallUS = append(m.wallUS, us)
	if err != nil {
		m.failed++
	}
	if m.probing {
		m.probeSim += cost
	} else if m.inSim {
		m.simOps++
		if err != nil {
			m.simFailed++
		}
		m.simOpSum += cost
		m.simMS = append(m.simMS, float64(cost)/1e6)
	}
	if ks := m.kinds[kind]; ks != nil {
		ks.sim = append(ks.sim, float64(cost)/1e6)
		ks.wall = append(ks.wall, us)
	}
}

func (m *meter) repair(c simnet.Cost) {
	if m.inSim && !m.off {
		m.simRepair += c
	}
}

func (m *meter) payload(n int) {
	if m.inSim && !m.off {
		m.userBytes += int64(n)
	}
}

// client drives one core.Mount. Every method is one Mount call: one op,
// timed on both clocks and counted. A traced run also opens the op's span.
type client struct {
	m   *core.Mount
	mt  *meter
	rec *recorder
}

// opStart is when an op began, on both of the benchmark's wall clocks: the
// wall clock and the process's CPU time.
type opStart struct {
	wall time.Time
	cpu  time.Duration
}

// clockProcessCPU is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPU = 2

// processCPU is the CPU time every thread of the process has used, to the
// nanosecond (getrusage only advances at scheduler ticks, too coarse for a
// 30 µs op). Unlike wall time it does not grow while the machine runs
// someone else's work on this process's CPUs.
func processCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

func (c *client) begin(kind string) (bool, opStart) {
	opened := c.rec.beginOp(opSpans[kind])
	cpu := processCPU()
	return opened, opStart{time.Now(), cpu}
}

func (c *client) done(kind string, opened bool, t0 opStart, cost simnet.Cost, err error) {
	wall := time.Since(t0.wall)
	cpu := processCPU() - t0.cpu
	c.rec.end(opened)
	c.mt.record(kind, wall, cpu, cost, err)
}

// doneLookup is done for a lookup whose caller expects it may find nothing
// (a walk that creates what is missing): ENOENT is an answer, not a failure.
func (c *client) doneLookup(opened bool, t0 opStart, cost simnet.Cost, err error) {
	if nfs.IsStatus(err, nfs.ErrNoEnt) {
		c.done("lookup", opened, t0, cost, nil)
		return
	}
	c.done("lookup", opened, t0, cost, err)
}

func (c *client) Lookup(dir core.VH, name string, mayMiss bool) (core.VH, localfs.Attr, simnet.Cost, error) {
	o, t0 := c.begin("lookup")
	vh, a, cost, err := c.m.Lookup(dir, name)
	if mayMiss {
		c.doneLookup(o, t0, cost, err)
	} else {
		c.done("lookup", o, t0, cost, err)
	}
	return vh, a, cost, err
}

func (c *client) LookupPath(p string) (core.VH, localfs.Attr, simnet.Cost, error) {
	o, t0 := c.begin("lookup")
	vh, a, cost, err := c.m.LookupPath(p)
	c.done("lookup", o, t0, cost, err)
	return vh, a, cost, err
}

func (c *client) Getattr(vh core.VH) (localfs.Attr, simnet.Cost, error) {
	o, t0 := c.begin("getattr")
	a, cost, err := c.m.Getattr(vh)
	c.done("getattr", o, t0, cost, err)
	return a, cost, err
}

func (c *client) Setattr(vh core.VH, sa localfs.SetAttr) (localfs.Attr, simnet.Cost, error) {
	o, t0 := c.begin("setattr")
	a, cost, err := c.m.Setattr(vh, sa)
	c.done("setattr", o, t0, cost, err)
	return a, cost, err
}

func (c *client) Read(vh core.VH, off int64, n int) ([]byte, bool, simnet.Cost, error) {
	o, t0 := c.begin("read")
	data, eof, cost, err := c.m.Read(vh, off, n)
	c.done("read", o, t0, cost, err)
	if err == nil {
		c.mt.payload(len(data))
	}
	return data, eof, cost, err
}

func (c *client) Write(vh core.VH, off int64, data []byte) (int, simnet.Cost, error) {
	o, t0 := c.begin("write")
	n, cost, err := c.m.Write(vh, off, data)
	c.done("write", o, t0, cost, err)
	if err == nil {
		c.mt.payload(n)
	}
	return n, cost, err
}

func (c *client) Create(dir core.VH, name string) (core.VH, localfs.Attr, simnet.Cost, error) {
	o, t0 := c.begin("create")
	vh, a, cost, err := c.m.Create(dir, name, 0o644, false)
	c.done("create", o, t0, cost, err)
	return vh, a, cost, err
}

func (c *client) Mkdir(dir core.VH, name string) (core.VH, localfs.Attr, simnet.Cost, error) {
	o, t0 := c.begin("mkdir")
	vh, a, cost, err := c.m.Mkdir(dir, name, 0o755)
	c.done("mkdir", o, t0, cost, err)
	return vh, a, cost, err
}

func (c *client) Readdir(dir core.VH) ([]core.DirEntry, simnet.Cost, error) {
	o, t0 := c.begin("readdir")
	ents, cost, err := c.m.Readdir(dir)
	c.done("readdir", o, t0, cost, err)
	return ents, cost, err
}

func (c *client) Remove(dir core.VH, name string) (simnet.Cost, error) {
	o, t0 := c.begin("remove")
	cost, err := c.m.Remove(dir, name)
	c.done("remove", o, t0, cost, err)
	return cost, err
}

// errCheck marks a wrong output: the run is not correct.
var errCheck = errors.New("output check failed")
