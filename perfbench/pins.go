package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"repro/internal/sim"
)

// pinSet is the simulated output of every op at the default seed, for
// the trajectory generation it was recorded under. A run at the default
// seed whose sim.TrajectoryVersion matches must reproduce it exactly; a
// change that moves a trajectory on purpose bumps the version and
// re-records the pins with --write-pins.
type pinSet struct {
	TrajectoryVersion int                           `json:"trajectory_version"`
	Seed              int64                         `json:"seed"`
	Workloads         map[string]map[string]outcome `json:"workloads"`
}

//go:embed pins.json
var pinsJSON []byte

func loadPins() pinSet {
	var p pinSet
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic(fmt.Sprintf("pins.json: %v", err)) // embedded at build time
	}
	return p
}

// pinAll runs every workload's ops once at the default seed and writes
// their outputs as a pin file.
func pinAll(path string) error {
	p := pinSet{TrajectoryVersion: sim.TrajectoryVersion, Seed: defaultSeed,
		Workloads: map[string]map[string]outcome{}}
	for _, w := range workloads {
		runtime.GOMAXPROCS(w.procs)
		ops := w.build(defaultSeed)
		s := runPass(ops, nil)
		outs := map[string]outcome{}
		for i, o := range ops {
			if err := s.ops[i].err; err != nil {
				return fmt.Errorf("%s %s: %w", w.name, o.key, err)
			}
			outs[o.key] = s.ops[i].out
		}
		p.Workloads[w.name] = outs
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
