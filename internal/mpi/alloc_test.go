package mpi

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/sim"
)

// perRound measures the steady-state allocation cost of one round of a
// parameterized simulation inside a single run. run must build, run and
// Release a world performing `rounds` rounds, calling mark(i) on one rank
// as it starts round i. The heap allocations between round markFrom and
// round markTo, divided by the rounds between them, are the per-round
// cost. Set-up (world construction, process spawning, rank names,
// lazily-built wait-state pools) happens before round markFrom and
// teardown after round markTo, so neither enters the measurement, however
// its cost varies with the P a goroutine lands on. The first two runs
// only warm the pools, and the GC is disabled so pool contents survive
// the measurement.
//
// One window is measured. It is measured again only when the Go runtime
// started an OS thread inside it, which the thread-creation count shows:
// the runtime heap-allocates the new thread's m and g structures, and
// ReadMemStats' stop-the-world can trigger such a start. Any other
// allocation in the window counts.
func perRound(t *testing.T, run func(rounds int, mark func(round int))) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation guards are meaningless under the race detector")
	}
	const rounds, markFrom, markTo = 600, 200, 500
	const warmups, attempts = 2, 5
	prev := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prev)
	primeSudogCache()
	var ms runtime.MemStats
	var from, to uint64
	var threadsFrom, threadsTo int
	mark := func(round int) {
		switch round {
		case markFrom:
			threadsFrom, _ = runtime.ThreadCreateProfile(nil)
			runtime.ReadMemStats(&ms)
			from = ms.Mallocs
		case markTo:
			runtime.ReadMemStats(&ms)
			to = ms.Mallocs
			threadsTo, _ = runtime.ThreadCreateProfile(nil)
		}
	}
	for i := 0; i < warmups; i++ {
		run(rounds, mark)
	}
	for i := 1; ; i++ {
		from, to = 0, 0
		run(rounds, mark)
		if to == 0 {
			t.Fatalf("run never reached round %d", markTo)
		}
		if to == from || threadsTo == threadsFrom || i == attempts {
			if to != from {
				t.Logf("%d allocations between rounds %d and %d", to-from, markFrom, markTo)
			}
			return float64(to-from) / float64(markTo-markFrom)
		}
		t.Logf("%d allocations in a window in which the runtime started %d OS threads; measuring again",
			to-from, threadsTo-threadsFrom)
	}
}

// primeSudogCache stocks the runtime's central sudog cache. A goroutine
// rank parks on a channel every round, and the runtime takes the park's
// sudog from the current P's cache, refills that from the central cache,
// and allocates only when both are empty. Which P a rank parks on is the
// scheduler's choice, so an unprimed run can count such a refill as a
// per-round cost. The select below parks with one sudog per case and,
// when its timer fires, releases them all on one P, whose cache holds 128
// and passes the rest to the central cache. A P's cache never holds more
// than 128, so with 128 more sudogs than all Ps can hold, a refill always
// finds the central cache stocked. The GC empties the central cache, so
// prime with the GC already disabled.
func primeSudogCache() {
	idle := reflect.ValueOf(make(chan struct{}))
	cases := make([]reflect.SelectCase, 128*(runtime.GOMAXPROCS(0)+1))
	for i := range cases {
		cases[i] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: idle}
	}
	cases[0].Chan = reflect.ValueOf(time.After(10 * time.Millisecond))
	reflect.Select(cases)
}

// TestWaitHotPathZeroAlloc pins the goroutine-representation send/recv
// round trip — Isend, Irecv, Wait with the direct-wake completion path —
// at zero allocations per round: requests, messages, posted receives and
// wakers all recycle through the world pools.
func TestWaitHotPathZeroAlloc(t *testing.T) {
	run := func(rounds int, mark func(int)) {
		w := NewWorld(Config{Procs: 2, Seed: 5})
		_, err := w.Run(func(r *Rank) {
			c := r.World()
			for i := 0; i < rounds; i++ {
				if r.ID() == 0 {
					mark(i)
					c.Send(r, 1, 0, 1024, nil)
					c.Recv(r, 1, 1)
				} else {
					c.Recv(r, 0, 0)
					c.Send(r, 0, 1, 512, nil)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Release()
	}
	if got := perRound(t, run); got != 0 {
		t.Errorf("proc ping-pong allocates %.2f allocs/round in steady state, want 0", got)
	}
}

// TestFiberP2PHotPathZeroAlloc pins the fiber-representation FSend/FRecv
// round trip at zero allocations per round (pooled fwait states plus the
// pooled requests/messages).
func TestFiberP2PHotPathZeroAlloc(t *testing.T) {
	run := func(rounds int, mark func(int)) {
		w := NewWorld(Config{Procs: 2, Seed: 5})
		_, err := w.RunFibers(func(r *Rank, f *sim.Fiber) sim.StepFunc {
			c := r.World()
			i := 0
			var loop sim.StepFunc
			var afterSend, afterRecv func(Status) sim.StepFunc
			afterSend = func(Status) sim.StepFunc { return loop }
			sendBack := func(_ *sim.Fiber) sim.StepFunc {
				return c.FSend(r, 0, 1, 512, nil, loop)
			}
			afterRecv = func(Status) sim.StepFunc { return sendBack }
			recvReply := func(_ *sim.Fiber) sim.StepFunc {
				return c.FRecv(r, 1, 1, afterSend)
			}
			loop = func(_ *sim.Fiber) sim.StepFunc {
				if i >= rounds {
					return nil
				}
				i++
				if r.ID() == 0 {
					mark(i)
					return c.FSend(r, 1, 0, 1024, nil, recvReply)
				}
				return c.FRecv(r, 0, 0, afterRecv)
			}
			return loop
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Release()
	}
	if got := perRound(t, run); got != 0 {
		t.Errorf("fiber ping-pong allocates %.2f allocs/round in steady state, want 0", got)
	}
}

// TestFWaitAnyHotPathZeroAlloc pins the FWaitAny consumer loop — the
// Fig. 8 stream shape: a fan-in consumer parked on per-request waiters,
// reposting after every message — at zero allocations per message.
func TestFWaitAnyHotPathZeroAlloc(t *testing.T) {
	const producers = 2
	run := func(rounds int, mark func(int)) {
		w := NewWorld(Config{Procs: producers + 1, Seed: 5})
		_, err := w.RunFibers(func(r *Rank, f *sim.Fiber) sim.StepFunc {
			c := r.World()
			if r.ID() < producers {
				i := 0
				var loop sim.StepFunc
				send := func(_ *sim.Fiber) sim.StepFunc {
					return c.FSend(r, producers, r.ID(), 2048, nil, loop)
				}
				loop = func(_ *sim.Fiber) sim.StepFunc {
					if i >= rounds {
						return nil
					}
					i++
					return r.FCompute(sim.Time(1+r.ID())*sim.Microsecond, send)
				}
				return loop
			}
			reqs := make([]*Request, producers)
			left := make([]int, producers)
			for i := range reqs {
				reqs[i] = c.Irecv(r, i, i)
				left[i] = rounds
			}
			got := 0
			var loop sim.StepFunc
			var onMsg func(int, Status) sim.StepFunc
			onMsg = func(idx int, _ Status) sim.StepFunc {
				got++
				left[idx]--
				if left[idx] > 0 {
					reqs[idx] = c.Irecv(r, idx, idx)
				} else {
					reqs[idx] = nil
				}
				return loop
			}
			loop = func(_ *sim.Fiber) sim.StepFunc {
				if got >= producers*rounds {
					return nil
				}
				mark(got)
				return c.FWaitAny(r, reqs, onMsg)
			}
			return loop
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Release()
	}
	if got := perRound(t, run); got != 0 {
		t.Errorf("FWaitAny fan-in allocates %.2f allocs/message in steady state, want 0", got)
	}
}

// TestProcWaitAnyHotPathZeroAlloc is TestFWaitAnyHotPathZeroAlloc for the
// goroutine representation: the pooled per-request wakers must make the
// blocking WaitAny loop allocation-free too.
func TestProcWaitAnyHotPathZeroAlloc(t *testing.T) {
	const producers = 2
	run := func(rounds int, mark func(int)) {
		w := NewWorld(Config{Procs: producers + 1, Seed: 5})
		_, err := w.Run(func(r *Rank) {
			c := r.World()
			if r.ID() < producers {
				for i := 0; i < rounds; i++ {
					r.Compute(sim.Time(1+r.ID()) * sim.Microsecond)
					c.Send(r, producers, r.ID(), 2048, nil)
				}
				return
			}
			reqs := make([]*Request, producers)
			left := make([]int, producers)
			for i := range reqs {
				reqs[i] = c.Irecv(r, i, i)
				left[i] = rounds
			}
			for got := 0; got < producers*rounds; got++ {
				mark(got)
				idx, _ := c.WaitAny(r, reqs)
				left[idx]--
				if left[idx] > 0 {
					reqs[idx] = c.Irecv(r, idx, idx)
				} else {
					reqs[idx] = nil
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Release()
	}
	if got := perRound(t, run); got != 0 {
		t.Errorf("WaitAny fan-in allocates %.2f allocs/message in steady state, want 0", got)
	}
}
