package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// buildDir is the benchmark's scratch directory inside the checkout; the
// traced run keeps its CPU profiles there.
const buildDir = ".bench_build"

// cores2MaxProcs sizes the fig7 sweep behind experiments.cores2_parallelism.
const cores2MaxProcs = 512

// layers are the cpu_share buckets: the repro/internal packages a
// workload's ops run through, plus the Go runtime split into GC and the
// rest. Samples are charged to the innermost repro/internal frame.
var layers = []string{"sim", "mpi", "stream", "apps", "cluster", "netmodel", "faults", "workload", "runtime_gc", "runtime_other"}

// workloadRun is one workload's ops and the passes made over them.
type workloadRun struct {
	w      workload
	ops    []op
	passes []passSample
}

// traced is the per-layer run. It measures the selected workload
// untraced for the requested time, then once more under the CPU profiler
// (the tracing overhead is that pass's wall time over the untraced
// median, and the profile gives the cpu_share split), then one pass of
// every other workload so that every per-op metric is reported, then the
// layer probes and the two diagnostics.
func traced(w workload, seed int64, seconds float64) (result, report, error) {
	ops, pins := prepare(w, seed)
	chk := newChecker(w.name, seed, pins)
	warm, passes := measure(ops, seconds, chk)
	self := workloadRun{w: w, ops: ops, passes: passes}
	base := median(walls(self.passes))
	logf("%s: %d untraced passes, median %.3fs", w.name, len(self.passes), base)

	profPath := filepath.Join(buildDir, "profiles", fmt.Sprintf("%s-seed%d.pprof", w.name, seed))
	prof, err := profiledPass(profPath, w, ops)
	if err != nil {
		return result{}, report{}, err
	}
	chk.pass(ops, prof)
	shares, err := cpuShares(profPath)
	if err != nil {
		return result{}, report{}, err
	}
	logf("%s: profiled pass %.3fs, profile in %s", w.name, prof.wall, profPath)

	m := map[string]metric{"trace.overhead": {prof.wall / base, "ratio"}}
	for _, l := range layers {
		m["cpu_share."+l] = metric{shares[l], "fraction"}
	}
	gc, alloc := make([]float64, len(self.passes)), make([]float64, len(self.passes))
	for i, p := range self.passes {
		gc[i], alloc[i] = p.gcFrac, p.allocMB
	}
	m["runtime.gc_cpu_frac"] = metric{median(gc), "fraction"}
	m["runtime.alloc_mb"] = metric{median(alloc), "MB"}
	var msgs int64
	for _, o := range chk.first {
		msgs += o.Messages
	}
	m["mpi.messages"] = metric{float64(msgs), "count"}

	checkers := []*checker{chk}
	runs := map[string]workloadRun{w.name: self}
	for _, other := range workloads {
		if other.name == w.name {
			continue
		}
		runtime.GOMAXPROCS(other.procs)
		c := newChecker(other.name, seed, pins)
		oops := other.build(seed)
		p := runPass(oops, nil)
		c.pass(oops, p)
		runs[other.name] = workloadRun{w: other, ops: oops, passes: []passSample{p}}
		checkers = append(checkers, c)
		logf("%s: one pass %.3fs", other.name, p.wall)
	}
	for _, r := range runs {
		opMetrics(m, r)
	}

	comm := runs["particle-comm-sharded"]
	runtime.GOMAXPROCS(comm.w.procs)
	ref := comm.w.reference(seed)
	refPass := runPass(ref, nil)
	for _, c := range checkers {
		if c.workload == comm.w.name {
			c.reference(ref, refPass)
		}
	}
	commWall := median(walls(comm.passes))
	m["sim.shard_speedup"] = metric{refPass.wall / commWall, "ratio"}
	m["sim.shard_parallelism"] = metric{median(cpus(comm.passes)) / commWall, "ratio"}
	faultMetrics(m, runs["fault-recovery"])
	logf("%s: reference configuration %.3fs", comm.w.name, refPass.wall)

	layerSamples := runProbes()
	for _, p := range probes {
		m[p.name] = metric{median(layerSamples[p.name]), p.unit}
	}
	logf("layer probes done")
	unreachable := unreachableSeeds()
	logf("unreachable diagnostic done")
	m["mpi.reliable.unreachable"] = metric{unreachable, "count"}
	// Two threads available, as for `decouplebench -workers 1 -cores 2`
	// on this host; the sweep's own GOMAXPROCS pin is what is measured.
	runtime.GOMAXPROCS(2)
	par, err := cores2Parallelism(cores2MaxProcs)
	if err != nil {
		return result{}, report{}, fmt.Errorf("fig7 at two cores: %w", err)
	}
	m["experiments.cores2_parallelism"] = metric{par, "ratio"}
	layerSamples["mpi.reliable.unreachable"] = []float64{unreachable}
	layerSamples["experiments.cores2_parallelism"] = []float64{par}
	layerSamples["trace.profiled_wall_s"] = []float64{prof.wall}
	for name, r := range runs {
		if name != w.name {
			layerSamples[name+".wall_s"] = walls(r.passes)
		}
	}
	layerSamples["particle-comm-sharded.cores1_wall_s"] = []float64{refPass.wall}

	total := &checker{workload: "all"}
	for _, c := range checkers {
		total.attempted += c.attempted
		total.failures = append(total.failures, c.failures...)
	}
	res := result{Correct: total.failed() == 0, Attempted: total.attempted, Failed: total.failed(), Metrics: m}
	rep := newReport(w, seed, 1, total)
	rep.WarmUp = passRecords([]passSample{warm})[0]
	rep.Passes = passRecords(self.passes)
	rep.Profiled = &passRecords([]passSample{prof})[0]
	rep.Ops = opRecords(ops, self.passes[0])
	rep.Layers = layerSamples
	return res, rep, nil
}

// opMetrics reports, per op kind: host seconds (median over passes of
// the kind's summed op time), events and allocations per event (last
// pass, when pools and heaps are warm).
func opMetrics(m map[string]metric, r workloadRun) {
	host := map[string][]float64{}
	events, allocs := map[string]uint64{}, map[string]uint64{}
	for pi, p := range r.passes {
		sum := map[string]float64{}
		for i, o := range r.ops {
			sum[o.kind] += p.ops[i].host
			if pi == len(r.passes)-1 {
				events[o.kind] += p.ops[i].events
				allocs[o.kind] += p.ops[i].allocs
			}
		}
		for k, v := range sum {
			host[k] = append(host[k], v)
		}
	}
	for k, hs := range host {
		m[k+".host_s"] = metric{median(hs), "s"}
		m[k+".events"] = metric{float64(events[k]), "count"}
		m[k+".allocs_per_event"] = metric{float64(allocs[k]) / float64(events[k]), "allocs/event"}
	}
}

// faultMetrics derives the reliable-delivery and failure counters from
// the fault-recovery ops: retransmits and goodput of the lossy runs, the
// host-time overhead of 5% drops over the same runs on a clean fabric,
// and the restarts and failovers of the crashed recovery runs.
func faultMetrics(m map[string]metric, r workloadRun) {
	var msgs, retx, restarts, failovers int64
	var lossyHost, cleanHost []float64
	for pi, p := range r.passes {
		var lossy, clean float64
		for i, o := range r.ops {
			out := p.ops[i].out
			switch {
			case strings.HasPrefix(o.kind, "ipic3d.lossy-"):
				lossy += p.ops[i].host
				if pi == 0 {
					msgs += out.Messages
					retx += out.Retransmits
				}
			case strings.HasPrefix(o.kind, "ipic3d.io64-"):
				clean += p.ops[i].host
			}
			if pi == 0 {
				restarts += out.Restarts
				failovers += out.Failovers
			}
		}
		lossyHost, cleanHost = append(lossyHost, lossy), append(cleanHost, clean)
	}
	m["mpi.reliable.retransmits"] = metric{float64(retx), "count"}
	m["mpi.reliable.goodput"] = metric{float64(msgs) / float64(msgs+retx), "fraction"}
	m["mpi.reliable.overhead"] = metric{median(lossyHost) / median(cleanHost), "ratio"}
	m["mpi.failure.restarts"] = metric{float64(restarts), "count"}
	m["mpi.failure.failovers"] = metric{float64(failovers), "count"}
}

// profiledPass runs one pass of ops under the CPU profiler, labelling
// every sample with the workload and op.
func profiledPass(path string, w workload, ops []op) (passSample, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return passSample{}, err
	}
	f, err := os.Create(path)
	if err != nil {
		return passSample{}, err
	}
	runtime.GOMAXPROCS(w.procs)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return passSample{}, err
	}
	s := runPass(ops, func(o op, run func()) {
		pprof.Do(context.Background(), pprof.Labels("workload", w.name, "op", o.key), func(context.Context) { run() })
	})
	pprof.StopCPUProfile()
	return s, f.Close()
}

// cpuShares charges every profile sample to the innermost
// repro/internal/<pkg> frame on its stack, read from the stack listing
// `go tool pprof -traces` prints, and returns each layer's share.
func cpuShares(profile string) (map[string]float64, error) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		return nil, fmt.Errorf("cpu_share needs the go tool: %w", err)
	}
	out, err := exec.Command(gobin, "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	return sharesFromTraces(out)
}

// sharesFromTraces parses pprof's -traces listing: samples separated by
// "-----------+----" rules, each its label lines ("key: value"), then a
// value column on its first frame line followed by the rest of the
// stack, innermost frame first. A sample is charged to its innermost
// repro/internal frame's layer (internal packages outside the named
// layers count as apps); a sample with none is runtime_gc when a GC
// worker frame is on its stack and runtime_other otherwise.
func sharesFromTraces(listing []byte) (map[string]float64, error) {
	charged := map[string]time.Duration{}
	var total, value time.Duration
	layer, gc := "", false
	flush := func() {
		switch {
		case value == 0:
			return
		case layer != "":
		case gc:
			layer = "runtime_gc"
		default:
			layer = "runtime_other"
		}
		charged[layer] += value
		total += value
		value, layer, gc = 0, "", false
	}
	sc := bufio.NewScanner(bytes.NewReader(listing))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inSamples := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSamples = true
			continue
		}
		fields := strings.Fields(line)
		if !inSamples || len(fields) == 0 || strings.HasSuffix(fields[0], ":") {
			continue // header, blank or label line
		}
		frame := fields[0]
		if d, err := time.ParseDuration(fields[0]); err == nil && len(fields) > 1 {
			value, frame = d, fields[1]
		}
		if layer == "" {
			layer = internalLayer(frame)
		}
		gc = gc || strings.HasPrefix(frame, "runtime.gcBgMarkWorker") ||
			strings.HasPrefix(frame, "runtime.bgsweep") || strings.HasPrefix(frame, "runtime.bgscavenge")
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -traces: no samples")
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = float64(charged[l]) / float64(total)
	}
	return shares, nil
}

// internalLayer is the layer of a repro/internal frame, or "" for any
// other frame.
func internalLayer(frame string) string {
	pkg, ok := strings.CutPrefix(frame, "repro/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(pkg, "/."); i >= 0 {
		pkg = pkg[:i]
	}
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return "apps"
}
