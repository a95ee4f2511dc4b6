package main

import (
	"fmt"

	"repro/internal/apps/cg"
	"repro/internal/apps/ipic3d"
	"repro/internal/apps/mapreduce"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// outcome is an op's simulated result: the values the output check pins
// and compares across repeats. Zero fields are left out of reports.
type outcome struct {
	Makespan    sim.Time `json:"makespan"`
	Messages    int64    `json:"messages,omitempty"`
	Bytes       int64    `json:"bytes,omitempty"`
	IOTail      sim.Time `json:"io_tail,omitempty"`
	Retransmits int64    `json:"retransmits,omitempty"`
	Restarts    int64    `json:"restarts,omitempty"`
	Failovers   int64    `json:"failovers,omitempty"`
	BankBusy    sim.Time `json:"bank_busy,omitempty"`
}

// op is one call into a layer's public entry point. kind names the
// per-layer metrics the op feeds (several ops may share a kind); key is
// unique within the workload and names the op in pins and reports.
type op struct {
	kind string
	key  string
	run  func() (outcome, error)
}

// workload is a fixed list of ops built from the workload seed. procs is
// the GOMAXPROCS the passes run under: one thread, like a single-worker
// decouplebench sweep, except where the ops shard the engine.
type workload struct {
	name  string
	procs int
	build func(seed int64) []op
	// reference, when set, builds the same ops in another engine
	// configuration whose outputs must be identical.
	reference func(seed int64) []op
}

var workloads = []workload{
	{name: "halo-reduce", procs: 1, build: haloReduce},
	{name: "particle-io", procs: 1, build: particleIO},
	{name: "particle-comm-sharded", procs: 2,
		build:     func(seed int64) []op { return particleComm(seed, 2) },
		reference: func(seed int64) []op { return particleComm(seed, 1) }},
	{name: "fault-recovery", procs: 1, build: faultRecovery},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// appSeed derives the i-th application seed of a workload seed. Seeds
// stay positive and below 2^31 so every app's own seed arithmetic
// (offsets, multipliers) behaves as it does for small sweep seeds.
func appSeed(seed int64, i int) int64 {
	return int64(uint64(sim.Mix64(seed, int64(i)))>>33) + 1
}

const (
	scaleProcs = 1024 // the figure workloads' world size
	faultProcs = 64   // the lossy, recovery and resilience sweeps' size
)

var ioVariants = []struct {
	name string
	v    ipic3d.IOVariant
}{{"coll", ipic3d.IOCollective}, {"shared", ipic3d.IOShared}, {"decoupled", ipic3d.IODecoupled}}

func ioOutcome(res ipic3d.Result) outcome {
	return outcome{Makespan: res.Time, Messages: res.Messages, Bytes: res.BytesWritten,
		IOTail: res.IOTail, Retransmits: res.Retransmits}
}

// haloReduce is Fig. 6 (CG halo exchange, three variants) and Fig. 5
// (MapReduce reference and decoupled at the paper's three alphas) at one
// seed on the classic engine.
func haloReduce(seed int64) []op {
	s := appSeed(seed, 0)
	var ops []op
	for _, v := range []struct {
		name string
		v    cg.Variant
	}{{"blocking", cg.Blocking}, {"nonblocking", cg.Nonblocking}, {"decoupled", cg.Decoupled}} {
		v := v
		ops = append(ops, op{kind: "cg." + v.name, run: func() (outcome, error) {
			c := cg.DefaultConfig(scaleProcs)
			c.Seed, c.Fibers = s, true
			res, err := cg.Run(c, v.v)
			return outcome{Makespan: res.Time, Messages: res.Messages}, err
		}})
	}
	ops = append(ops, op{kind: "mapreduce.reference", run: func() (outcome, error) {
		c := mapreduce.DefaultConfig(scaleProcs)
		c.Seed, c.Fibers = s, true
		res, err := mapreduce.RunReference(c)
		return outcome{Makespan: res.Time, Messages: res.Messages, Bytes: res.TotalBytes}, err
	}})
	for _, a := range []struct {
		name  string
		alpha float64
	}{{"12.5", 0.125}, {"6.25", 0.0625}, {"3.125", 0.03125}} {
		a := a
		ops = append(ops, op{kind: "mapreduce.decoupled-" + a.name, run: func() (outcome, error) {
			c := mapreduce.DefaultConfig(scaleProcs)
			c.Seed, c.Fibers, c.Alpha = s, true, a.alpha
			res, err := mapreduce.RunDecoupled(c)
			return outcome{Makespan: res.Time, Messages: res.Messages, Bytes: res.TotalBytes}, err
		}})
	}
	return keyed(ops)
}

// particleIO is Fig. 8 (the three particle-I/O variants) at two seeds,
// then the co-scheduling shape: four 16-proc decoupled writers, one of
// them an I/O hog, sharing a 4-stripe bank under each bank policy.
func particleIO(seed int64) []op {
	var ops []op
	for i := 0; i < 2; i++ {
		s := appSeed(seed, i)
		for _, v := range ioVariants {
			v := v
			ops = append(ops, op{kind: "ipic3d.io-" + v.name, run: func() (outcome, error) {
				c := ipic3d.DefaultConfig(scaleProcs)
				c.Seed, c.Fibers = s, true
				res, err := ipic3d.RunIO(c, v.v)
				return ioOutcome(res), err
			}})
		}
	}
	s := appSeed(seed, 2)
	for _, name := range []string{"fcfs", "fair", "priority", "fair-wc", "priority-wc"} {
		policy, err := cluster.ParsePolicy(name)
		if err != nil {
			panic(err) // the names above are the package's own
		}
		ops = append(ops, op{kind: "cluster." + name, run: func() (outcome, error) {
			res, err := cluster.Run(cluster.Config{Jobs: coschedJobs(s), Policy: policy, Stripes: 4, Seed: s})
			return outcome{Makespan: res.Makespan, BankBusy: res.BankBusy}, err
		}})
	}
	return keyed(ops)
}

// coschedJobs mirrors the cosched experiment's job mix: job 0 saves its
// whole particle population every step, the others a quarter, and the
// light jobs outrank the hog 4:1 under the priority policies.
func coschedJobs(seed int64) []cluster.Job {
	const jobs, perJob = 4, 16
	out := make([]cluster.Job, jobs)
	for i := range out {
		c := ipic3d.DefaultConfig(perJob)
		c.Seed, c.Fibers = seed*101+int64(i), true
		c.MoveRate, c.BufferSteps = 4e6, 1
		c.SaveFraction, out[i].Weight = 0.25, 4
		if i == 0 {
			c.SaveFraction, out[i].Weight = 1, 1
		}
		out[i].Name = fmt.Sprintf("job%d", i)
		out[i].Start = func(base mpi.Config) (*mpi.World, error) {
			j, err := ipic3d.StartIO(c, ipic3d.IODecoupled, base)
			if err != nil {
				return nil, err
			}
			return j.World(), nil
		}
	}
	return out
}

// particleComm is Fig. 7 (reference forwarding and decoupled streaming)
// at one seed in the conservative parallel engine with cores workers.
func particleComm(seed int64, cores int) []op {
	s := appSeed(seed, 0)
	commOp := func(kind string, run func(ipic3d.Config) (ipic3d.Result, error)) op {
		return op{kind: kind, run: func() (outcome, error) {
			c := ipic3d.DefaultConfig(scaleProcs)
			c.Seed, c.Fibers, c.Cores = s, true, cores
			res, err := run(c)
			return outcome{Makespan: res.Time, Messages: res.Messages}, err
		}}
	}
	return keyed([]op{
		commOp("ipic3d.comm-reference", ipic3d.RunCommReference),
		commOp("ipic3d.comm-decoupled", ipic3d.RunCommDecoupled),
	})
}

// Fault-recovery shape parameters, mirroring the lossy, recovery and
// resilience sweeps at their own 64-proc scale.
const (
	faultSeeds     = 20   // app seeds per pass
	lossyDropRate  = 0.05 // the lossy sweep's middle rate
	recoveryEvery  = 6    // checkpoint interval, steps
	recoverySteps  = 24
	recoveryBytes  = 256
	recoveryCrash  = 2
	recoveryWindow = 16 * sim.Second // crash horizon, inside every clean run
)

// faultRecovery runs, per app seed: the three Fig. 8 variants on a
// lossless and a lossy fabric; checkpointed recovery clean and with two
// crashes; and the default degraded-mode campaign. Every fault plan is
// compiled here, before the first op runs, so its cost lands in set-up.
func faultRecovery(seed int64) []op {
	stripes := netmodel.LustreLike().Stripes
	var ops []op
	for i := 0; i < faultSeeds; i++ {
		s := appSeed(seed, i)
		msg := &faults.Injection{Msg: &netmodel.MsgFaults{
			DropSeed: sim.Mix64(0x1055, s), DropRate: lossyDropRate,
			DupSeed: sim.Mix64(0xd0b1e, s), DupRate: lossyDropRate / 4,
		}}
		crash := compile(crashSpec(s), faultProcs, stripes)
		campaign := compile(campaignSpec(s), faultProcs, stripes)
		for _, v := range ioVariants {
			v := v
			fig8 := func(kind string, inj *faults.Injection) op {
				return op{kind: kind + v.name, run: func() (outcome, error) {
					c := ipic3d.DefaultConfig(faultProcs)
					c.Seed, c.Fibers, c.Faults = s, true, inj
					res, err := ipic3d.RunIO(c, v.v)
					return ioOutcome(res), err
				}}
			}
			recovery := func(inj *faults.Injection) op {
				return op{kind: "ipic3d.recovery-" + v.name, run: func() (outcome, error) {
					c := ipic3d.DefaultConfig(faultProcs)
					c.Steps, c.ParticleBytes = recoverySteps, recoveryBytes
					c.Seed, c.Fibers, c.Faults = s, true, inj
					res, err := ipic3d.RunRecovery(c, v.v, recoveryEvery)
					return outcome{Makespan: res.Time, Messages: res.Messages, Bytes: res.CheckpointBytes,
						Restarts: res.Restarts, Failovers: res.Failovers}, err
				}}
			}
			resilience := op{kind: "ipic3d.resilience-" + v.name, run: func() (outcome, error) {
				c := ipic3d.DefaultConfig(faultProcs)
				c.Seed, c.Fibers, c.Faults = s, true, campaign
				res, err := ipic3d.RunIO(c, v.v)
				return ioOutcome(res), err
			}}
			ops = append(ops, fig8("ipic3d.io64-", nil), fig8("ipic3d.lossy-", msg),
				recovery(nil), recovery(crash), resilience)
		}
	}
	return keyed(ops)
}

// crashSpec is the recovery sweep's campaign: crash-stop failures only,
// two of them, inside the horizon every clean run outlasts.
func crashSpec(seed int64) faults.Spec {
	sp := faults.DefaultSpec()
	sp.Bursts, sp.Outages, sp.DerateStripes, sp.Flaps = 0, 0, 0, 0
	sp.Crashes, sp.Horizon = recoveryCrash, recoveryWindow
	sp.Seed = sim.Mix64(sp.Seed, seed)
	return sp
}

// campaignSpec is the resilience sweep's default campaign at intensity 1.
func campaignSpec(seed int64) faults.Spec {
	sp := faults.DefaultSpec()
	sp.Seed = sim.Mix64(sp.Seed, seed)
	return sp
}

func compile(sp faults.Spec, procs, stripes int) *faults.Injection {
	inj, err := sp.Plan(procs, stripes).Compile(procs, stripes)
	if err != nil {
		panic(fmt.Sprintf("compiling fault plan %+v: %v", sp, err)) // specs above are valid by construction
	}
	return &inj
}

// keyed names each op by its kind and its index in the workload.
func keyed(ops []op) []op {
	for i := range ops {
		ops[i].key = fmt.Sprintf("%02d:%s", i, ops[i].kind)
	}
	return ops
}
