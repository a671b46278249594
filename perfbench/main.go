// Command perfbench is the repository's end-to-end benchmark. One
// process builds a workload from a seed, runs it against the system in
// process, checks every answer against a single-node reference, and
// prints its metrics as one JSON object on the last line of standard
// output:
//
//	bash perfbench/run.sh --workload repair --seed 1 --seconds 10 --trace 0
//
// Workloads: repair (erminerd on loopback HTTP), churn (a cluster
// coordinator over two workers, reads beside data patches) and mine
// (EnuMinerH3 and RLMiner on nursery). --trace 0 prints the end-to-end
// metrics; --trace 1 alternates untraced blocks of the workload with
// blocks that record spans at each layer boundary, replays the layers'
// entry points on the workload's inputs, and prints the per-layer
// metrics instead. See README.md for the metric definitions and the
// layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"erminer/internal/core"
	"erminer/internal/rule"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// spanDir is where a traced run writes its spans, inside the build
// directory run.sh keeps out of version control.
const spanDir = ".bench_build/spans"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	err       error
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.err = errors.Join(r.err, fmt.Errorf("metric %s is %v", name, v))
		return
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// setEndToEnd sets the end-to-end metrics every workload reports:
// set-up time (the median of the run's set-ups), the live heap after
// the measured phase, the measured phase's wall time, and the median
// latencies, in ms, of the workload's main and side operations.
func (r *result) setEndToEnd(setups []float64, heapMB float64, work time.Duration, main, side []float64) {
	r.set("setup_s", "s", median(setups))
	r.set("live_heap_mb", "MiB", heapMB)
	r.set("work_s", "s", work.Seconds())
	r.set("main_op_p50_ms", "ms", median(main))
	r.set("side_op_p50_ms", "ms", median(side))
}

// note logs a figure that only some workloads have, so it is not one of
// the manifest's metrics, to standard error.
func note(name, unit string, v float64) {
	logf("figure %s: %.6g %s", name, v, unit)
}

// wrong marks the run incorrect: an answer failed its oracle.
func (r *result) wrong(err error) *result {
	logf("INCORRECT: %v", err)
	r.Correct = false
	return r
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: repair, churn or mine")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's traffic (request batches, data patches) and of the traced run's replay episodes")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured-phase size: the serving workloads send this many seconds' worth of operations at the reference host's rate")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 || cfg.seconds < 1 {
		logf("--trace must be 0 or 1 and --seconds at least 1")
		os.Exit(2)
	}

	run, ok := map[string]func(config) (*result, error){
		"repair": runRepair,
		"churn":  runChurn,
		"mine":   runMine,
	}[cfg.workload]
	if !ok {
		logf("unknown --workload %q (want repair, churn or mine)", cfg.workload)
		os.Exit(2)
	}
	logf("host: %d CPUs, GOMAXPROCS %d, %s %s/%s; workload %s, seed %d, seconds %d, trace %d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		cfg.workload, cfg.seed, cfg.seconds, trace)
	start := time.Now()
	res, err := run(cfg)
	if err == nil {
		err = res.err
	}
	if err != nil {
		logf("%s: %v", cfg.workload, err)
		os.Exit(1)
	}
	logf("%s finished in %v", cfg.workload, time.Since(start).Round(time.Millisecond))
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// repeatSetup builds the system n times, timing each build; all but the
// last are stopped again. Set-up time is reported as the median, and the
// last system built is the one measured. A traced run does not report
// set-up time and builds once.
func repeatSetup[T interface{ stop() error }](cfg config, n int, build func() (T, error)) (T, []float64, error) {
	if cfg.trace {
		n = 1
	}
	var cur T
	var secs []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		s, err := build()
		if err != nil {
			return cur, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		logf("set-up %d of %d: %.3f s", i+1, n, secs[i])
		if i < n-1 {
			if err := s.stop(); err != nil {
				return cur, nil, err
			}
			continue
		}
		cur = s
	}
	return cur, secs, nil
}

// phase accumulates measured phases: their wall time and the runtime's
// allocation and GC counters across them.
type phase struct {
	wall     time.Duration
	alloc    uint64 // bytes allocated
	gcCycles uint32
	gcPause  time.Duration
}

// measure times f after a full collection, so garbage left by set-up
// or an earlier phase is not collected on f's time.
func (ph *phase) measure(f func()) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	f()
	ph.wall += time.Since(start)
	runtime.ReadMemStats(&m1)
	ph.alloc += m1.TotalAlloc - m0.TotalAlloc
	ph.gcCycles += m1.NumGC - m0.NumGC
	ph.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
}

func (ph *phase) load(gen *loadGen, ops int, do func(int, *opRecord)) []opRecord {
	var recs []opRecord
	ph.measure(func() { recs = gen.run(0, ops, do) })
	return recs
}

// traceBlocks is how many untraced and how many traced blocks a traced
// run alternates, so drift on a shared host falls on both alike.
const traceBlocks = 4

// tracedLoad runs operations 0..2*ops-1 in 2*traceBlocks blocks,
// alternately untraced and traced. ph accumulates the untraced blocks
// only; traced[i] says whether operation i was traced.
func (ph *phase) tracedLoad(gen *loadGen, t *tracer, ops int, do func(int, *opRecord)) (recs []opRecord, traced []bool) {
	per := ops / traceBlocks
	for b := 0; b < 2*traceBlocks; b++ {
		on := b%2 == 1
		var block []opRecord
		if on {
			gen.sw.set(t)
			runtime.GC()
			block = gen.run(len(recs), per, do)
			gen.sw.set(nil)
		} else {
			ph.measure(func() { block = gen.run(len(recs), per, do) })
		}
		recs = append(recs, block...)
		for range block {
			traced = append(traced, on)
		}
	}
	return recs, traced
}

// setRuntime reports the runtime layer over the phase; ops is the
// number of operations it ran.
func (ph *phase) setRuntime(res *result, ops int) {
	res.set("runtime.alloc_kb_per_op", "KiB", float64(ph.alloc)/1024/float64(ops))
	res.set("runtime.gc_cycles", "count", float64(ph.gcCycles))
	res.set("runtime.gc_pause_ms", "ms", millis(ph.gcPause))
}

// liveHeapMB is the heap in use after a full collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func ruleList(rules []core.MinedRule) []*rule.Rule {
	out := make([]*rule.Rule, len(rules))
	for i, r := range rules {
		out[i] = r.Rule
	}
	return out
}
