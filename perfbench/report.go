package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/sim"
)

// report is printed as a JSON line before the result: provenance, the
// raw per-pass samples (so medians and quartiles can be recomputed), the
// simulated outputs and every check failure.
type report struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Trace      int        `json:"trace"`
	Provenance provenance `json:"provenance"`
	Attempted  int        `json:"attempted"`
	Failed     int        `json:"failed"`
	FailFrac   float64    `json:"fail_frac"`
	Failures   []string   `json:"failures,omitempty"`

	SetupSeconds []float64    `json:"setup_seconds,omitempty"`
	WarmUp       passRecord   `json:"warm_up"`
	Passes       []passRecord `json:"passes"`
	Profiled     *passRecord  `json:"profiled,omitempty"` // the traced run's profiled pass
	Ops          []opRecord   `json:"ops"`
	// Layers holds the traced run's extra raw samples: other workloads'
	// passes and the probes' individual readings.
	Layers map[string][]float64 `json:"layers,omitempty"`
}

type provenance struct {
	NumCPU            int    `json:"nproc"`
	GOMAXPROCS        int    `json:"gomaxprocs"`
	CPUModel          string `json:"cpu_model"`
	GoVersion         string `json:"go_version"`
	Commit            string `json:"commit"`
	TrajectoryVersion int    `json:"trajectory_version"`
	GCPercent         int    `json:"gc_percent"`
}

type passRecord struct {
	Wall      float64   `json:"wall_s"`
	CPU       float64   `json:"cpu_s"`
	GCCPUFrac float64   `json:"gc_cpu_frac"`
	AllocMB   float64   `json:"alloc_mb"`
	OpHost    []float64 `json:"op_host_s"`
}

// opRecord is one op's identity, its deterministic counters and its
// simulated outputs (makespans are outputs, not speed).
type opRecord struct {
	Key    string  `json:"key"`
	Events uint64  `json:"events"`
	Allocs uint64  `json:"allocs"`
	Out    outcome `json:"out"`
}

func newReport(w workload, seed int64, trace int, chk *checker) report {
	r := report{Workload: w.name, Seed: seed, Trace: trace, Provenance: provenanceFor(w),
		Attempted: chk.attempted, Failed: chk.failed(), Failures: chk.failures}
	if chk.attempted > 0 {
		r.FailFrac = float64(chk.failed()) / float64(chk.attempted)
	}
	return r
}

func provenanceFor(w workload) provenance {
	return provenance{
		NumCPU:            runtime.NumCPU(),
		GOMAXPROCS:        w.procs,
		CPUModel:          cpuModel(),
		GoVersion:         runtime.Version(),
		Commit:            commit(),
		TrajectoryVersion: sim.TrajectoryVersion,
		GCPercent:         gcPercent,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the toolchain stamped into the binary; a
// build outside a git checkout has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	switch {
	case rev == "":
		return "unknown"
	case dirty:
		return rev + "+modified"
	}
	return rev
}

func passRecords(passes []passSample) []passRecord {
	out := make([]passRecord, len(passes))
	for i, p := range passes {
		host := make([]float64, len(p.ops))
		for j, o := range p.ops {
			host[j] = o.host
		}
		out[i] = passRecord{Wall: p.wall, CPU: p.cpu, GCCPUFrac: p.gcFrac, AllocMB: p.allocMB, OpHost: host}
	}
	return out
}

func opRecords(ops []op, first passSample) []opRecord {
	out := make([]opRecord, len(ops))
	for i, o := range ops {
		s := first.ops[i]
		out[i] = opRecord{Key: o.key, Events: s.events, Allocs: s.allocs, Out: s.out}
	}
	return out
}
