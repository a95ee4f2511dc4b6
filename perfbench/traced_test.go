package main

import (
	"math"
	"testing"
)

const listing = `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
        op:  00:ipic3d.io64-coll
  workload:  fault-recovery
      10ms   runtime.mallocgc
             repro/internal/mpi.(*Comm).fallgathervOn
             repro/internal/sim.(*Engine).Run
-----------+-------------------------------------------------------
      30ms   repro/internal/sim.eventHeap.less (inline)
             repro/internal/apps/ipic3d.RunIO
-----------+-------------------------------------------------------
      20ms   repro/internal/trace.(*Recorder).Add
-----------+-------------------------------------------------------
      20ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      20ms   runtime.futex
             runtime.mcall
-----------+-------------------------------------------------------
`

func TestSharesFromTraces(t *testing.T) {
	got, err := sharesFromTraces([]byte(listing))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"mpi": 0.1, "sim": 0.3, "apps": 0.2, "runtime_gc": 0.2, "runtime_other": 0.2}
	for _, l := range layers {
		if math.Abs(got[l]-want[l]) > 1e-12 {
			t.Errorf("cpu_share.%s = %v, want %v", l, got[l], want[l])
		}
	}
}

func TestSharesFromTracesEmpty(t *testing.T) {
	if _, err := sharesFromTraces([]byte("File: perfbench\n")); err == nil {
		t.Error("no samples: want an error")
	}
}
