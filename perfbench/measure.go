package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/sim"
)

// setupRepeats is how many times a run sets the workload up to take the
// median set-up time.
const setupRepeats = 15

// minPasses keeps the repeat check meaningful, and the median robust to
// one pass landing in a slow spell of the host, however short --seconds
// is.
const minPasses = 3

// opSample is one op's execution inside one pass.
type opSample struct {
	host   float64 // seconds
	events uint64
	allocs uint64
	out    outcome
	err    error
}

// passSample is one pass over a workload's ops.
type passSample struct {
	wall, cpu float64 // seconds
	gcFrac    float64 // GC share of the CPU the Go runtime used
	allocMB   float64
	ops       []opSample
}

// panicError is a panic recovered from an op: fiber bodies re-raise their
// panics on the caller's goroutine, so one failing op must not take the
// pass down with it.
type panicError struct{ v interface{} }

func (p panicError) Error() string { return fmt.Sprintf("panic: %v", p.v) }

func (p panicError) Unwrap() error {
	err, _ := p.v.(error)
	return err
}

func runOp(o op) (out outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError{r}
		}
	}()
	return o.run()
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // Linux RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

// runtimeCounters reads GC CPU, used CPU and allocated bytes.
func runtimeCounters() (gc, used, alloc float64) {
	metrics.Read(runtimeSamples)
	gc = runtimeSamples[0].Value.Float64()
	used = runtimeSamples[1].Value.Float64() - runtimeSamples[2].Value.Float64()
	return gc, used, float64(runtimeSamples[3].Value.Uint64())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runPass runs every op once, in order, on the calling goroutine. wrap,
// when set, runs around each op (the traced run attaches profile labels).
// A full collection first gives every pass the same starting heap, so
// the few GC cycles a pass triggers under the high GC target fall at
// the same points in every pass instead of wherever the previous pass
// left the heap.
func runPass(ops []op, wrap func(o op, run func())) passSample {
	if wrap == nil {
		wrap = func(_ op, run func()) { run() }
	}
	runtime.GC()
	s := passSample{ops: make([]opSample, len(ops))}
	gc0, used0, alloc0 := runtimeCounters()
	cpu0, wall0 := cpuSeconds(), time.Now()
	for i, o := range ops {
		rec := &s.ops[i]
		ev0, al0, t0 := sim.GlobalEvents(), mallocs(), time.Now()
		wrap(o, func() { rec.out, rec.err = runOp(o) })
		rec.host = time.Since(t0).Seconds()
		rec.events, rec.allocs = sim.GlobalEvents()-ev0, mallocs()-al0
	}
	s.wall, s.cpu = time.Since(wall0).Seconds(), cpuSeconds()-cpu0
	gc1, used1, alloc1 := runtimeCounters()
	if used1 > used0 {
		s.gcFrac = (gc1 - gc0) / (used1 - used0)
	}
	s.allocMB = (alloc1 - alloc0) / (1 << 20)
	return s
}

// measure runs one warm-up pass, which fills the world and engine pools
// and grows the heap to its working size, then timed passes for about
// seconds (at least minPasses): another pass starts only if at least
// half of it fits in the time left. Every pass's outputs are checked.
func measure(ops []op, seconds float64, chk *checker) (warm passSample, timed []passSample) {
	warm = runPass(ops, nil)
	chk.pass(ops, warm)
	start := time.Now()
	for len(timed) < minPasses || time.Since(start).Seconds()+timed[len(timed)-1].wall/2 < seconds {
		s := runPass(ops, nil)
		chk.pass(ops, s)
		timed = append(timed, s)
	}
	return warm, timed
}

// probeSetup starts the benchmark n times in set-up-only mode and
// returns, for each, the time from process start to the instant it was
// ready to run its first op: runtime init, building the op list,
// compiling fault plans and loading the pins. The children start from a
// thread pinned to one CPU and inherit the pin, so each runs on the CPU
// its parent just left instead of waking an idle one: on a VM that
// wake-up added 2-4 ms to about half the samples.
func probeSetup(w workload, seed int64, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	unpin, err := pinThread()
	if err != nil {
		return nil, err
	}
	defer unpin()
	out := make([]float64, 0, n)
	// One untimed start first, so every timed one finds the binary in
	// the page cache.
	for i := -1; i < n; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", w.name, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		start := time.Now()
		line, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		ready, err := strconv.ParseInt(strings.TrimSpace(string(line)), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe printed %q: %w", line, err)
		}
		if i >= 0 {
			out = append(out, time.Duration(ready-start.UnixNano()).Seconds())
		}
	}
	return out, nil
}

// checker validates op outputs: every repeat equals the first pass, the
// pinned values at the default seed, and the reference configuration's
// outputs. Every mismatch, error or recovered panic counts one failed op.
type checker struct {
	workload  string
	first     []outcome
	pins      map[string]outcome // nil when pins do not apply
	attempted int
	failures  []string
}

func newChecker(w string, seed int64, pins pinSet) *checker {
	c := &checker{workload: w}
	if seed == defaultSeed && pins.TrajectoryVersion == sim.TrajectoryVersion {
		c.pins = pins.Workloads[w]
		if c.pins == nil {
			c.pins = map[string]outcome{}
		}
	}
	return c
}

func (c *checker) fail(key, format string, args ...interface{}) {
	c.failures = append(c.failures, fmt.Sprintf("%s %s: %s", c.workload, key, fmt.Sprintf(format, args...)))
}

func (c *checker) pass(ops []op, s passSample) {
	firstPass := c.first == nil
	if firstPass {
		c.first = make([]outcome, len(ops))
	}
	for i, o := range ops {
		c.attempted++
		got := s.ops[i].out
		switch pin, pinned := c.pins[o.key]; {
		case s.ops[i].err != nil:
			c.fail(o.key, "%v", s.ops[i].err)
		case !firstPass && got != c.first[i]:
			c.fail(o.key, "repeat gave %+v, first pass %+v", got, c.first[i])
		case firstPass && c.pins != nil && !pinned:
			c.fail(o.key, "no pinned output")
		case firstPass && c.pins != nil && got != pin:
			c.fail(o.key, "got %+v, pinned %+v", got, pin)
		}
		if firstPass {
			c.first[i] = got
		}
	}
}

// reference checks a pass of the workload's reference configuration
// against the first pass.
func (c *checker) reference(ops []op, s passSample) {
	for i, o := range ops {
		c.attempted++
		switch {
		case s.ops[i].err != nil:
			c.fail(o.key, "reference configuration: %v", s.ops[i].err)
		case s.ops[i].out != c.first[i]:
			c.fail(o.key, "reference configuration gave %+v, measured %+v", s.ops[i].out, c.first[i])
		}
	}
}

func (c *checker) failed() int { return len(c.failures) }

// untraced is the measured run: set-up probes, then passes for the
// requested time, then the reference check.
func untraced(w workload, seed int64, seconds float64) (result, report, error) {
	setup, err := probeSetup(w, seed, setupRepeats)
	if err != nil {
		return result{}, report{}, err
	}
	ops, pins := prepare(w, seed)
	chk := newChecker(w.name, seed, pins)
	warm, passes := measure(ops, seconds, chk)
	logf("%s: warm-up pass %.3fs, %d timed passes", w.name, warm.wall, len(passes))
	if w.reference != nil {
		ref := w.reference(seed)
		chk.reference(ref, runPass(ref, nil))
	}
	res := result{
		Correct:   chk.failed() == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed(),
		Metrics: map[string]metric{
			"wall_s":      {median(walls(passes)), "s"},
			"cpu_s":       {median(cpus(passes)), "s"},
			"setup_s":     {median(setup), "s"},
			"peak_rss_mb": {peakRSSMB(), "MB"},
		},
	}
	rep := newReport(w, seed, 0, chk)
	rep.SetupSeconds = setup
	rep.WarmUp = passRecords([]passSample{warm})[0]
	rep.Passes = passRecords(passes)
	rep.Ops = opRecords(ops, passes[0])
	return res, rep, nil
}

func walls(ps []passSample) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall
	}
	return out
}

func cpus(ps []passSample) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.cpu
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuMask is a Linux CPU affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func schedAffinity(trap uintptr, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(trap, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// pinThread locks the calling goroutine to its thread and restricts the
// thread to the lowest CPU it may run on. The returned function restores
// the thread's affinity and unlocks it.
func pinThread() (func(), error) {
	runtime.LockOSThread()
	var orig cpuMask
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, &orig); err != nil {
		runtime.UnlockOSThread()
		return nil, fmt.Errorf("sched_getaffinity: %w", err)
	}
	var one cpuMask
	for i, word := range orig {
		if word != 0 {
			one[i] = word & -word
			break
		}
	}
	if err := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &one); err != nil {
		runtime.UnlockOSThread()
		return nil, fmt.Errorf("sched_setaffinity: %w", err)
	}
	return func() {
		if err := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &orig); err != nil {
			return // stay locked: the thread exits with its goroutine instead of serving others pinned
		}
		runtime.UnlockOSThread()
	}, nil
}
