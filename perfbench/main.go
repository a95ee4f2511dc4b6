// Command perfbench is the repository benchmark. It drives the simulator
// through the public entry points of its layers (apps, cluster, sim, mpi,
// netmodel, faults), measures one workload for a fixed time, checks the
// simulated outputs, and prints one JSON result line last:
//
//	perfbench --workload halo-reduce --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run.
// See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// gcPercent is the GC target every decouplebench sweep runs under
// (experiments.runPoints): simulation backlogs keep a large live heap.
const gcPercent = 1000

// defaultSeed is the seed whose outputs are pinned in pins.json.
const defaultSeed = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name       = flag.String("workload", "", "workload to run: halo-reduce, particle-io, particle-comm-sharded or fault-recovery")
		seed       = flag.Int64("seed", defaultSeed, "workload seed; every op's seed is derived from it")
		seconds    = flag.Float64("seconds", 10, "how long to measure, in seconds")
		trace      = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		setupProbe = flag.Bool("setup-probe", false, "internal: set up the workload, print the completion instant and exit")
		writePins  = flag.String("write-pins", "", "run every workload once at the default seed and write its outputs to this file")
	)
	flag.Parse()
	debug.SetGCPercent(gcPercent)

	if *writePins != "" {
		if err := pinAll(*writePins); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *setupProbe {
		prepare(w, *seed)
		fmt.Println(time.Now().UnixNano())
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds > 0 and --trace 0 or 1"))
	}
	var (
		res result
		rep report
		err error
	)
	if *trace == 1 {
		res, rep, err = traced(w, *seed, *seconds)
	} else {
		res, rep, err = untraced(w, *seed, *seconds)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(map[string]report{"report": rep})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// prepare is everything the benchmark does before its first op: select
// the thread count, build the op list (compiling fault plans) and load
// the pinned outputs.
func prepare(w workload, seed int64) ([]op, pinSet) {
	runtime.GOMAXPROCS(w.procs)
	return w.build(seed), loadPins()
}

var processStart = time.Now()

// logf writes a progress line, stamped with the time since start, to
// standard error.
func logf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "perfbench %6.1fs  %s\n", time.Since(processStart).Seconds(), fmt.Sprintf(format, args...))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
