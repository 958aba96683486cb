package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"repro/pkg/frontendsim"
)

// Re-run sample sizes of the correctness check.  Cold keys cost about
// half a second each in-process; the others a few milliseconds.
const (
	coldRerun  = 4
	shortRerun = 16
)

// checkPhase verifies one finished phase, outside its timing, and
// returns every problem found:
//   - every response body equals the first body served for its key
//     (compared while the phase ran, by bodyTable);
//   - a seeded sample of the keys served, re-run with Engine.Run,
//     matches byte for byte;
//   - every retained suite response, re-run with Engine.RunSuite,
//     matches byte for byte;
//   - warm's timed phase misses no simd store (it runs no engine).
func checkPhase(ctx context.Context, wl *workload, p *phase, bodies *bodyTable, seed uint64, before, after fleetStats) []string {
	var problems []string
	if p.err != nil {
		problems = append(problems, fmt.Sprintf("request generator: %v", p.err))
	}
	if n := bodies.mismatches.Load(); n > 0 {
		problems = append(problems, fmt.Sprintf("%d response bodies differ from the first body served for their key", n))
	}
	eng := frontendsim.New()

	var served []int
	for _, c := range p.clients {
		served = append(served, c.done...)
	}
	slices.Sort(served)
	served = slices.Compact(served)
	n := shortRerun
	if wl.name == "cold" {
		n = coldRerun
	}
	pick := newRand(seed, streamSamples-1)
	for i := 0; i < n && len(served) > 0; i++ {
		j := pick.IntN(len(served))
		k := served[j]
		served = slices.Delete(served, j, j+1)
		res, err := eng.Run(ctx, wl.table.request(k))
		if err != nil {
			problems = append(problems, fmt.Sprintf("re-run key %d: %v", k, err))
			continue
		}
		want, err := json.Marshal(res)
		if err != nil {
			problems = append(problems, fmt.Sprintf("encode key %d: %v", k, err))
			continue
		}
		if got := bytes.TrimSuffix(bodies.get(k), []byte("\n")); !bytes.Equal(got, want) {
			problems = append(problems, fmt.Sprintf("key %d: served body differs from Engine.Run", k))
		}
	}

	for _, c := range p.clients {
		for _, s := range c.samples {
			res, err := eng.RunSuite(ctx, s.suite)
			if err != nil {
				problems = append(problems, fmt.Sprintf("re-run suite: %v", err))
				continue
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(res); err != nil {
				problems = append(problems, fmt.Sprintf("encode suite: %v", err))
				continue
			}
			if !bytes.Equal(s.body, want.Bytes()) {
				problems = append(problems, fmt.Sprintf("suite %v: served body differs from Engine.RunSuite", s.suite.Benchmarks))
			}
		}
	}

	if wl.name == "warm" && after.simdStore.Misses != before.simdStore.Misses {
		problems = append(problems, fmt.Sprintf("warm timed phase missed simd stores %d times",
			after.simdStore.Misses-before.simdStore.Misses))
	}
	return problems
}
