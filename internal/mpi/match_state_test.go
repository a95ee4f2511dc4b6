package mpi

import (
	"testing"

	"repro/internal/sim"
)

// TestMatchStateBoundedByLiveTraffic pins that a rank's matching state is
// sized by its live traffic, not by run history. Every collective mints a
// fresh tag, so buckets kept after their last entry drained would grow
// the bucket maps with the collective count. Hundreds of back-to-back
// collectives run in both process representations and across a
// pooled-reuse cycle; between collectives each rank may hold only the
// buckets its faster peers' next collective has already filled, and at
// the end of a run, with nothing in flight, none.
func TestMatchStateBoundedByLiveTraffic(t *testing.T) {
	const procs, iters = 64, 100 // 300 collectives per run
	// Between collectives, a rank's live buckets are the early arrivals of
	// its peers' next collective: at most one bucket per peer.
	const liveBound = procs - 1
	buckets := func(rs *rankState) int { return len(rs.match.posted) + len(rs.match.queued) }
	var peak []int
	observe := func(r *Rank) {
		if n := buckets(r.rs); n > peak[r.ID()] {
			peak[r.ID()] = n
		}
	}
	part := Part{Bytes: 8, Data: int64(1)}
	procBody := func(r *Rank) {
		c := r.World()
		for i := 0; i < iters; i++ {
			c.Allreduce(r, part, SumInt64, nil)
			c.Allgatherv(r, part)
			c.Barrier(r)
			observe(r)
		}
	}
	fiberBody := func(r *Rank, _ *sim.Fiber) sim.StepFunc {
		c := r.World()
		i := 0
		var loop sim.StepFunc
		loop = func(_ *sim.Fiber) sim.StepFunc {
			if i > 0 {
				observe(r)
			}
			if i == iters {
				return nil
			}
			i++
			return c.FAllreduce(r, part, SumInt64, nil, func(Part) sim.StepFunc {
				return c.FAllgatherv(r, part, func([]Part) sim.StepFunc {
					return c.FBarrier(r, loop)
				})
			})
		}
		return loop
	}
	for _, fibers := range []bool{false, true} {
		name := "goroutines"
		if fibers {
			name = "fibers"
		}
		t.Run(name, func(t *testing.T) {
			for cycle := 0; cycle < 2; cycle++ {
				peak = make([]int, procs)
				w := NewWorld(Config{Procs: procs, Seed: 7})
				var err error
				if fibers {
					_, err = w.RunFibers(fiberBody)
				} else {
					_, err = w.Run(procBody)
				}
				if err != nil {
					t.Fatal(err)
				}
				for i, rs := range w.ranks {
					if peak[i] > liveBound {
						t.Errorf("cycle %d: rank %d held %d posted+queued buckets between collectives, want <= %d",
							cycle, i, peak[i], liveBound)
					}
					if n := buckets(rs); n != 0 {
						t.Errorf("cycle %d: rank %d holds %d posted+queued buckets after the run, want 0",
							cycle, i, n)
					}
				}
				w.Release()
			}
		})
	}
}
