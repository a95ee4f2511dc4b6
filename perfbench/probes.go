package main

import (
	"errors"
	"runtime"
	"time"

	"repro/internal/apps/ipic3d"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// Layer probes: small fixed programs against one layer's public API,
// each reporting a cost per operation. probeRepeats readings are taken
// and the median reported; the raw readings go into the report.
const probeRepeats = 3

// probe is one per-layer reading: run once, return the metric value.
type probe struct {
	name  string
	unit  string
	procs int // GOMAXPROCS while the probe runs
	run   func() float64
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

var probes = []probe{
	{"sim.fiber_dispatch_ns", "ns", 1, probeFiberDispatch},
	{"sim.proc_dispatch_ns", "ns", 1, probeProcDispatch},
	{"sim.heap_event_ns", "ns", 1, probeHeapEvent},
	{"sim.shard_window_ns", "ns", 2, func() float64 { return probeShardWindows(0) }},
	{"sim.shard_post_ns", "ns", 2, probeShardPost},
	{"bank.reserve_ns.fcfs", "ns", 1, func() float64 { return probeBank(sim.BankFCFS) }},
	{"bank.reserve_ns.fair", "ns", 1, func() float64 { return probeBank(sim.BankFair) }},
	{"bank.reserve_ns.priority", "ns", 1, func() float64 { return probeBank(sim.BankWeighted) }},
	{"bank.reserve_ns.fair-wc", "ns", 1, func() float64 { return probeBank(sim.BankFairWC) }},
	{"bank.reserve_ns.priority-wc", "ns", 1, func() float64 { return probeBank(sim.BankWeightedWC) }},
	{"mpi.pingpong_ns", "ns", 1, probePingPong},
	{"mpi.waitany_ns", "ns", 1, probeWaitAny},
	{"mpi.barrier_ns", "ns", 1, probeBarrier},
	{"mpi.allreduce_ns", "ns", 1, probeAllreduce},
	{"mpi.allgatherv_ns", "ns", 1, probeAllgatherv},
	{"netmodel.verdict_ns", "ns", 1, probeVerdict},
	{"faults.compile_ms", "ms", 1, probeCompile},
}

// stride gives process i one of seven co-prime advance strides, so the
// resumes interleave through the event heap like a lockstep
// simulation's ranks.
func stride(i int) sim.Time { return sim.Time(97 + i%7) }

const staggered = 1024 // processes in the dispatch probes

func probeFiberDispatch() float64 {
	const per = 512
	e := sim.NewEngine(1)
	for i := 0; i < staggered; i++ {
		d, n := stride(i), 0
		var step sim.StepFunc
		step = func(f *sim.Fiber) sim.StepFunc {
			if n >= per {
				return nil
			}
			n++
			return f.Advance(d, step)
		}
		e.SpawnFiber("f", step)
	}
	t0 := time.Now()
	mustRun(e.Run())
	return nsPer(time.Since(t0), int(e.Events()))
}

func probeProcDispatch() float64 {
	const per = 128
	e := sim.NewEngine(1)
	for i := 0; i < staggered; i++ {
		d := stride(i)
		e.Spawn("p", func(p *sim.Proc) {
			for n := 0; n < per; n++ {
				p.Advance(d)
			}
		})
	}
	t0 := time.Now()
	mustRun(e.Run())
	return nsPer(time.Since(t0), int(e.Events()))
}

func probeHeapEvent() float64 {
	const total = 1 << 20
	e := sim.NewEngine(1)
	fired := 0
	for i := 0; i < staggered; i++ {
		d := stride(i)
		var tick func()
		tick = func() {
			if fired < total {
				fired++
				e.After(d, tick)
			}
		}
		e.After(d, tick)
	}
	t0 := time.Now()
	mustRun(e.Run())
	return nsPer(time.Since(t0), int(e.Events()))
}

// shardLookahead is the probe groups' window length; every fiber
// advances by exactly one lookahead per step, so each window runs one
// step on every shard and the barrier cost is paid once per step.
const (
	shardLookahead = 100
	shardWindows   = 20000
	postsPerWindow = 64
)

type nop struct{}

func (*nop) Fire() {}

// probeShardWindows runs two shards in lockstep for shardWindows windows
// with posts cross-shard posts per window from shard 0 to shard 1, and
// returns wall nanoseconds per window.
func probeShardWindows(posts int) float64 {
	g := sim.NewShardGroup(1, 2, shardLookahead)
	act := &nop{}
	for s := 0; s < 2; s++ {
		e, dst, n := g.Shard(s), g.Shard(1-s), 0
		var pri uint64
		var step sim.StepFunc
		step = func(f *sim.Fiber) sim.StepFunc {
			if n >= shardWindows {
				return nil
			}
			n++
			if e == g.Shard(0) {
				for i := 0; i < posts; i++ {
					pri++
					e.Post(dst, f.Now()+shardLookahead, pri, act)
				}
			}
			return f.Advance(shardLookahead, step)
		}
		e.SpawnFiber("w", step)
	}
	t0 := time.Now()
	mustRun(g.Run())
	return nsPer(time.Since(t0), shardWindows)
}

// probeShardPost is the extra window cost of postsPerWindow cross-shard
// posts, per post.
func probeShardPost() float64 {
	return (probeShardWindows(postsPerWindow) - probeShardWindows(0)) / postsPerWindow
}

// probeBank books reservations on a 4-stripe bank at about 80% load
// from four jobs of weights 1..4 that each request in proportion to
// their weight, so no job outgrows its share under any policy, with
// every job signalling demand.
func probeBank(policy sim.BankPolicy) float64 {
	const jobs, n = 4, 200000
	order := []int{0, 1, 1, 2, 2, 2, 3, 3, 3, 3} // job j appears weight(j) times
	b := sim.NewBank(4, jobs, policy)
	for j := 0; j < jobs; j++ {
		b.SetWeight(j, float64(1+j))
		b.IOBegin(j, 0)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		b.Reserve(order[i%len(order)], sim.Time(i)*400, sim.Time(1000+i%7*100))
	}
	return nsPer(time.Since(t0), n)
}

// fiberLoop returns a step that runs body n times, then ends.
func fiberLoop(n int, body func(next sim.StepFunc) sim.StepFunc) sim.StepFunc {
	i := 0
	var loop sim.StepFunc
	loop = func(_ *sim.Fiber) sim.StepFunc {
		if i >= n {
			return nil
		}
		i++
		return body(loop)
	}
	return loop
}

func timeWorld(procs int, main mpi.FiberMain) time.Duration {
	w := mpi.NewWorld(mpi.Config{Procs: procs, Seed: 1})
	t0 := time.Now()
	_, err := w.RunFibers(main)
	d := time.Since(t0)
	mustRun(0, err)
	w.Release()
	return d
}

func probePingPong() float64 {
	const n = 100000
	d := timeWorld(2, func(r *mpi.Rank, _ *sim.Fiber) sim.StepFunc {
		c := r.World()
		return fiberLoop(n, func(next sim.StepFunc) sim.StepFunc {
			if r.ID() == 0 {
				return c.FSend(r, 1, 0, 64, nil, func(*sim.Fiber) sim.StepFunc {
					return c.FRecv(r, 1, 0, func(mpi.Status) sim.StepFunc { return next })
				})
			}
			return c.FRecv(r, 0, 0, func(mpi.Status) sim.StepFunc {
				return c.FSend(r, 0, 0, 64, nil, next)
			})
		})
	})
	return nsPer(d, n)
}

// probeWaitAny is the Fig. 8 stream shape: a fan-in consumer reposting a
// receive after every message from eight producers.
func probeWaitAny() float64 {
	const producers, rounds = 8, 10000
	d := timeWorld(producers+1, func(r *mpi.Rank, _ *sim.Fiber) sim.StepFunc {
		c := r.World()
		if r.ID() < producers {
			return fiberLoop(rounds, func(next sim.StepFunc) sim.StepFunc {
				return r.FCompute(sim.Time(1+r.ID())*sim.Microsecond, func(*sim.Fiber) sim.StepFunc {
					return c.FSend(r, producers, r.ID(), 2048, nil, next)
				})
			})
		}
		reqs := make([]*mpi.Request, producers)
		left := make([]int, producers)
		for i := range reqs {
			reqs[i], left[i] = c.Irecv(r, i, i), rounds
		}
		return fiberLoop(producers*rounds, func(next sim.StepFunc) sim.StepFunc {
			return c.FWaitAny(r, reqs, func(i int, _ mpi.Status) sim.StepFunc {
				if left[i]--; left[i] > 0 {
					reqs[i] = c.Irecv(r, i, i)
				} else {
					reqs[i] = nil
				}
				return next
			})
		})
	})
	return nsPer(d, producers*rounds)
}

const collProcs = 1024 // the figure workloads' world size

func probeBarrier() float64 {
	const n = 20
	d := timeWorld(collProcs, func(r *mpi.Rank, _ *sim.Fiber) sim.StepFunc {
		return fiberLoop(n, func(next sim.StepFunc) sim.StepFunc { return r.World().FBarrier(r, next) })
	})
	return nsPer(d, n)
}

func probeAllreduce() float64 {
	const n = 20
	d := timeWorld(collProcs, func(r *mpi.Rank, _ *sim.Fiber) sim.StepFunc {
		return fiberLoop(n, func(next sim.StepFunc) sim.StepFunc {
			return r.World().FAllreduce(r, mpi.Part{Bytes: 8, Data: int64(1)}, mpi.SumInt64, nil,
				func(mpi.Part) sim.StepFunc { return next })
		})
	})
	return nsPer(d, n)
}

func probeAllgatherv() float64 {
	const n = 4
	d := timeWorld(collProcs, func(r *mpi.Rank, _ *sim.Fiber) sim.StepFunc {
		return fiberLoop(n, func(next sim.StepFunc) sim.StepFunc {
			return r.World().FAllgatherv(r, mpi.Part{Bytes: 1024}, func([]mpi.Part) sim.StepFunc { return next })
		})
	})
	return nsPer(d, n)
}

var verdictSink netmodel.MsgVerdict

func probeVerdict() float64 {
	const n = 1 << 21
	m := &netmodel.MsgFaults{DropSeed: 11, DropRate: lossyDropRate, DupSeed: 13, DupRate: lossyDropRate / 4}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		verdictSink += m.Verdict(i&63, (i>>6)&63, uint64(i>>12), i&1)
	}
	return nsPer(time.Since(t0), n)
}

// probeCompile compiles the fault-recovery workload's two plan shapes
// (crash campaign and default degraded-mode campaign) at its scale; ms
// per compile.
func probeCompile() float64 {
	const n = 200
	stripes := netmodel.LustreLike().Stripes
	t0 := time.Now()
	for i := 0; i < n; i++ {
		compile(crashSpec(int64(i)), faultProcs, stripes)
		compile(campaignSpec(int64(i)), faultProcs, stripes)
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6 / (2 * n)
}

func mustRun(_ sim.Time, err error) {
	if err != nil {
		panic(err) // the probe programs above cannot deadlock
	}
}

// runProbes takes probeRepeats readings of every probe.
func runProbes() map[string][]float64 {
	out := make(map[string][]float64, len(probes))
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, p := range probes {
		runtime.GOMAXPROCS(p.procs)
		for i := 0; i < probeRepeats; i++ {
			out[p.name] = append(out[p.name], p.run())
		}
	}
	return out
}

// Diagnostics: known defects the benchmark reports but does not gate.

// unreachableSeeds is how many of seeds 1..3 of a lossy RefColl run at
// 512 procs and 1% drops fail with a false RankUnreachableError.
func unreachableSeeds() float64 {
	failed := 0
	for seed := int64(1); seed <= 3; seed++ {
		c := ipic3d.DefaultConfig(512)
		c.Seed, c.Fibers = seed, true
		c.Faults = &faults.Injection{Msg: &netmodel.MsgFaults{
			DropSeed: sim.Mix64(0x1055, seed), DropRate: 0.01,
			DupSeed: sim.Mix64(0xd0b1e, seed), DupRate: 0.0025,
		}}
		_, err := runOp(op{run: func() (outcome, error) {
			res, err := ipic3d.RunIO(c, ipic3d.IOCollective)
			return ioOutcome(res), err
		}})
		var ue *mpi.RankUnreachableError
		if errors.As(err, &ue) {
			failed++
		}
	}
	return float64(failed)
}

// cores2Parallelism runs the registered fig7 sweep with one worker and
// two cores and returns CPU seconds over wall seconds.
func cores2Parallelism(maxProcs int) (float64, error) {
	cpu0, t0 := cpuSeconds(), time.Now()
	_, err := experiments.Registry["fig7"](experiments.Options{
		MaxProcs: maxProcs, Runs: 1, Workers: 1, Cores: 2, Fibers: true, FibersExplicit: true,
	})
	return (cpuSeconds() - cpu0) / time.Since(t0).Seconds(), err
}
