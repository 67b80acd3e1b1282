// Command perfbench is the repository's benchmark. It builds in-process Kosha
// clusters, drives one closed-loop client through core.Mount, checks every
// output, and prints its metrics as one JSON object on the last line of
// standard output. See README.md for the workloads and metrics.
//
//	perfbench --workload mab --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it runs the
// workload twice from the same seed, untraced and then with every layer seam
// wrapped, fails unless both report the same simulated numbers, and prints
// the per-layer metrics; it also writes the traced window's spans to
// .bench_build/spans/<workload>-<seed>.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times a run builds its cluster; setup_s is the
// median.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: mab, bulk, churn or tcp")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	sp, ok := workloads[*workload]
	if !ok || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload mab|bulk|churn|tcp --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(*workload, sp, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s seed %d: %v\n", *workload, *seed, err)
		if !errors.Is(err, errCheck) {
			os.Exit(1)
		}
		res = &result{Correct: false, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: res.Metrics}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(name string, sp spec, seed uint64, seconds float64, traced bool) (*result, error) {
	if !traced {
		a, err := runArm(sp, seed, seconds, false, setupReps)
		if err != nil {
			return a.result(nil), err
		}
		m, err := a.endToEnd()
		return a.result(m), err
	}
	plain, err := runArm(sp, seed, seconds, false, 1)
	if err != nil {
		return plain.result(nil), err
	}
	tr, err := runArm(sp, seed, seconds, true, 1)
	if err != nil {
		return tr.result(nil), err
	}
	fmt.Print(tr.rec.selfTable(name, tr.window))
	if err := tr.rec.dump(fmt.Sprintf(".bench_build/spans/%s-%d.json", name, seed)); err != nil {
		return tr.result(nil), err
	}
	m := tr.perLayer(plain)
	if err := sameSimulation(plain, tr); err != nil {
		return tr.result(m), err
	}
	return tr.result(m), nil
}

// sameSimulation is the transparency check: wrapping the layers must not
// change what the program does, so both runs of one seed report identical
// simulated numbers, byte ratios and error counts.
func sameSimulation(plain, tr *arm) error {
	p, t := plain.simulated(), tr.simulated()
	names := make([]string, 0, len(p))
	for k := range p {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if p[k] != t[k] {
			return fmt.Errorf("%w: traced run changed %s: %v untraced, %v traced", errCheck, k, p[k], t[k])
		}
	}
	return nil
}

// arm is one run of a workload: set-up, then the measured window.
type arm struct {
	rec *recorder
	mt  *meter

	setups []float64 // process CPU seconds per cluster build
	window time.Duration
	// One value per round of the simulated window; the simulated metrics
	// are their medians.
	roundSim, roundRepair, roundWire, roundStored []float64
	roundRate                                     []float64         // ops per CPU second inside ops, every round
	obs                                           map[string]uint64 // node counters gained in the window

	mem0, mem1            runtime.MemStats
	heapLive              uint64
	exclAlloc, exclMalloc uint64 // allocated by cluster rebuilds in the window
}

func runArm(sp spec, seed uint64, seconds float64, traced bool, reps int) (*arm, error) {
	a := &arm{mt: newMeter(traced), obs: map[string]uint64{}}
	if traced {
		a.rec = newRecorder()
	}
	a.mt.off = true
	var r runner
	for i := 0; i < reps; i++ {
		if r != nil {
			r.cluster().close()
		}
		r = sp.newRunner(a, seed)
		t0 := processCPU()
		err := r.setup()
		a.setups = append(a.setups, (processCPU() - t0).Seconds())
		if err != nil {
			r.cluster().close()
			return a, fmt.Errorf("setup: %w", err)
		}
	}
	defer func() { r.cluster().close() }()
	a.mt.off = false

	runtime.GC()
	runtime.ReadMemStats(&a.mem0)
	r.cluster().base = r.cluster().counters()
	a.rec.start()
	start := time.Now()

	for i := 0; i < sp.simRounds || time.Since(start).Seconds() < seconds; i++ {
		mt := a.mt
		wire0, sim0, repair0, user0 := r.cluster().wireBytes(), mt.simOpSum+mt.simExtra, mt.simRepair, mt.userBytes
		ops0, cpu0 := mt.ops, mt.opCPU
		if err := r.round(i); err != nil {
			return a, fmt.Errorf("round %d: %w", i, err)
		}
		a.roundRate = append(a.roundRate, float64(mt.ops-ops0)/(mt.opCPU-cpu0).Seconds())
		if i < sp.simRounds {
			c := r.cluster()
			a.roundSim = append(a.roundSim, (mt.simOpSum + mt.simExtra - sim0).Seconds())
			a.roundRepair = append(a.roundRepair, (mt.simRepair - repair0).Seconds())
			a.roundWire = append(a.roundWire, float64(c.wireBytes()-wire0)/float64(mt.userBytes-user0))
			a.roundStored = append(a.roundStored, float64(c.storedBytes())/float64(r.liveBytes()))
		}
		if i == sp.simRounds-1 {
			mt.inSim = false
			// The live heap is measured after the simulated window's fixed
			// work, so running more rounds on a faster machine (or program)
			// does not grow it.
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			a.heapLive = ms.HeapAlloc
		}
	}
	a.window = time.Since(start)
	a.rec.stop()
	runtime.ReadMemStats(&a.mem1)
	a.addCounters(r.cluster())
	return a, r.check()
}

// rebuild replaces a cluster inside the window. The build is set-up work: it
// counts toward setup_s, and neither its allocations nor its spans count
// toward the window.
func (a *arm) rebuild(old *kcluster, build func() (*kcluster, error)) (*kcluster, error) {
	a.addCounters(old)
	old.close()
	a.rec.stop()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := processCPU()
	c, err := build()
	a.setups = append(a.setups, (processCPU() - t0).Seconds())
	runtime.ReadMemStats(&m1)
	a.exclAlloc += m1.TotalAlloc - m0.TotalAlloc
	a.exclMalloc += m1.Mallocs - m0.Mallocs
	a.rec.resume()
	if c != nil {
		c.base = c.counters()
	}
	return c, err
}

// addCounters adds what a cluster's node counters gained in the window.
func (a *arm) addCounters(c *kcluster) {
	for k, v := range c.counters() {
		a.obs[k] += v - c.base[k]
	}
}

func (a *arm) result(m map[string]metric) *result {
	if m == nil {
		m = map[string]metric{}
	}
	return &result{Correct: true, Attempted: max(a.mt.ops, 1), Failed: a.mt.failed, Metrics: m}
}

// simulated is every number that depends only on the seed.
func (a *arm) simulated() map[string]float64 {
	sorted := sortedCopy(a.mt.simMS)
	p50, _ := percentile(sorted, 0.50)
	p99, _ := percentile(sorted, 0.99)
	return map[string]float64{
		"sim_s":                      median(a.roundSim),
		"sim_repair_s":               median(a.roundRepair),
		"wire_bytes_per_user_byte":   median(a.roundWire),
		"stored_bytes_per_user_byte": median(a.roundStored),
		"sim_op_p50_ms":              p50,
		"sim_op_p99_ms":              p99,
		"sim_ops":                    float64(a.mt.simOps),
		"sim_failed_ops":             float64(a.mt.simFailed),
	}
}

// opsPerSec is the median round's client throughput: ops over the process
// CPU time spent inside them. CPU time, because on a shared machine the wall
// time of a run can stretch by a quarter while another tenant holds the
// CPUs; a median of rounds, so that one round a GC cycle slowed does not
// move the figure.
func (a *arm) opsPerSec() float64 { return median(a.roundRate) }

func (a *arm) endToEnd() (map[string]metric, error) {
	sim := a.simulated()
	ops := float64(a.mt.ops)
	return map[string]metric{
		"sim_s":                      {sim["sim_s"], "s"},
		"sim_repair_s":               {sim["sim_repair_s"], "s"},
		"wire_bytes_per_user_byte":   {sim["wire_bytes_per_user_byte"], "ratio"},
		"stored_bytes_per_user_byte": {sim["stored_bytes_per_user_byte"], "ratio"},
		"ops_per_s":                  {a.opsPerSec(), "op/s"},
		"wall_op_p50_us":             {median(a.mt.wallUS), "us"},
		"alloc_bytes_per_op":         {float64(a.mem1.TotalAlloc-a.mem0.TotalAlloc-a.exclAlloc) / ops, "B"},
		"allocs_per_op":              {float64(a.mem1.Mallocs-a.mem0.Mallocs-a.exclMalloc) / ops, "count"},
		"heap_live_mb":               {float64(a.heapLive) / (1 << 20), "MiB"},
		"setup_s":                    {median(a.setups), "s"},
	}, nil
}
