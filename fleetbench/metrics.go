package main

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/pkg/frontendsim"
	"repro/pkg/resultstore"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// percentile interpolates linearly between the closest ranks of sorted.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(d []time.Duration) time.Duration {
	s := slices.Clone(d)
	slices.Sort(s)
	return percentile(s, 0.5)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB is the process's high-water resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// simulatedCycles returns warm_cycles+meas_cycles of each key's first
// served body, decoding each body once.
func simulatedCycles(bodies *bodyTable) func(k int) (float64, error) {
	cache := map[int]float64{}
	return func(k int) (float64, error) {
		if c, ok := cache[k]; ok {
			return c, nil
		}
		var r struct {
			WarmCycles uint64 `json:"warm_cycles"`
			MeasCycles uint64 `json:"meas_cycles"`
		}
		if err := json.Unmarshal(bodies.get(k), &r); err != nil {
			return 0, fmt.Errorf("decode cycles of key %d: %w", k, err)
		}
		c := float64(r.WarmCycles + r.MeasCycles)
		cache[k] = c
		return c, nil
	}
}

// endToEnd computes the untraced metrics of a timed phase.  notes
// receives the sample count behind each latency percentile.
func endToEnd(p *phase, setups []time.Duration, bodies *bodyTable) (metrics, []string, error) {
	m := metrics{}
	m.set("throughput_rps", "req/s", p.throughput())
	lat := p.latencies()
	var notes []string
	for _, q := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.50}, {"latency_p90_ms", 0.90}, {"latency_p99_ms", 0.99}} {
		v := percentile(lat, q.q)
		m.set(q.name, "ms", ms(v))
		beyond := len(lat) - sort.Search(len(lat), func(i int) bool { return lat[i] > v })
		notes = append(notes, fmt.Sprintf("%s: %d samples, %d beyond", q.name, len(lat), beyond))
	}
	cycles := simulatedCycles(bodies)
	var err error
	m.set("sim_mcycles_per_s", "Mcycles/s", p.rate(func(c *clientLog) float64 {
		total := 0.0
		for _, k := range c.done {
			v, cerr := cycles(k)
			if cerr != nil {
				err = cerr
			}
			total += v
		}
		return total / 1e6
	}))
	if err != nil {
		return nil, nil, err
	}
	m.set("peak_rss_mb", "MiB", peakRSSMiB())
	m.set("setup_s", "s", median(setups).Seconds())
	attempted, failed := p.attempted()
	notes = append(notes, fmt.Sprintf("failed_frac: %d/%d = %g", failed, attempted, ratio(float64(failed), float64(attempted))))
	return m, notes, nil
}

// replaySample is how many of a workload's first keys the traced run
// re-runs serially through Engine.Run for the sim layer's numbers: whole
// blocks of the benchmark permutation, so every benchmark weighs the
// same as in the served mix.
func replaySample(wl *workload) int {
	if wl.name == "cold" {
		return len(benchmarks)
	}
	return 3 * len(benchmarks)
}

// simLayer runs the workload's first keys in-process and serially,
// with no serving, and reports the sim layer: host time per run and the
// simulated counts, which a speed-only change must leave identical.  It
// also derives simd.queue_ms, the part of a MISS the engine run does
// not explain, so spanLayers must have run first.
func simLayer(ctx context.Context, wl *workload, m metrics) error {
	eng := frontendsim.New()
	n := replaySample(wl)
	if _, err := wl.table.item(n - 1); err != nil {
		return err
	}
	var host time.Duration
	var cycles, ops, pushes uint64
	for k := 0; k < n; k++ {
		req := wl.table.request(k)
		t0 := time.Now()
		res, err := eng.Run(ctx, req)
		host += time.Since(t0)
		if err != nil {
			return fmt.Errorf("replay key %d: %w", k, err)
		}
		st := res.Raw().Stats
		cycles += st.Cycles
		ops += st.Committed
		pushes += st.EventPushes
	}
	m.set("sim.run_ms", "ms", ms(host)/float64(n))
	if miss := m["simd.miss_ms"].Value; miss > 0 {
		m.set("simd.queue_ms", "ms", miss-ms(host)/float64(n))
	} else {
		m.set("simd.queue_ms", "ms", 0)
	}
	m.set("sim.mcycles_per_s", "Mcycles/s", float64(cycles)/host.Seconds()/1e6)
	m.set("sim.cycles", "cycles", float64(cycles))
	m.set("sim.committed_ops", "ops", float64(ops))
	m.set("sim.event_pushes", "count", float64(pushes))
	return nil
}

// frontendsimLayer times the frontendsim calls every serving path makes
// — RequestKey on the workload's requests, and decoding and encoding
// its served result bodies — in-process, on the workload's own data.
func frontendsimLayer(wl *workload, bodies *bodyTable, p *phase, m metrics) error {
	eng := frontendsim.New()
	var keys []int
	for _, c := range p.clients {
		keys = append(keys, c.done...)
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	if len(keys) > 256 {
		keys = keys[:256]
	}
	if len(keys) == 0 {
		return fmt.Errorf("no request was served")
	}
	const calls = 2000
	var keyT, decT, encT time.Duration
	for i := 0; i < calls; i++ {
		k := keys[i%len(keys)]
		req := wl.table.request(k)
		body := bodies.get(k)

		t0 := time.Now()
		_, err := eng.RequestKey(req)
		keyT += time.Since(t0)
		if err != nil {
			return err
		}
		var res frontendsim.Result
		t0 = time.Now()
		err = json.Unmarshal(body, &res)
		decT += time.Since(t0)
		if err != nil {
			return fmt.Errorf("decode key %d: %w", k, err)
		}
		t0 = time.Now()
		_, err = json.Marshal(&res)
		encT += time.Since(t0)
		if err != nil {
			return err
		}
	}
	m.set("frontendsim.request_key_us", "us", us(keyT)/calls)
	m.set("frontendsim.result_decode_us", "us", us(decT)/calls)
	m.set("frontendsim.result_encode_us", "us", us(encT)/calls)
	requests, shards := 0, 0
	for _, c := range p.clients {
		requests += c.ok
		shards += c.shards
	}
	m.set("frontendsim.suite_unique_shards", "count", ratio(float64(shards), float64(requests)))
	return nil
}

// meanOf is the mean duration of spans, or 0 for none.
func meanOf(spans []span, d func(span) time.Duration) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	var total time.Duration
	for _, s := range spans {
		total += d(s)
	}
	return total / time.Duration(len(spans))
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
	var total, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// spanLayers derives the serving layers' metrics from the traced
// phase's spans and the fleet's own counters around it.  A time metric
// with no span of its kind in the phase (simd.hit_us on cold,
// simd.miss_ms on warm) reads 0.
func spanLayers(spans []span, before, after fleetStats, m metrics) {
	byName := map[string][]span{}
	children := map[uint64][]span{}
	for _, s := range spans {
		byName[s.name] = append(byName[s.name], s)
		children[s.parent] = append(children[s.parent], s)
	}
	dur := func(s span) time.Duration { return s.dur() }

	handles := byName["scheduler.handle"]
	m.set("scheduler.handle_us", "us", us(meanOf(handles, dur)))
	m.set("scheduler.self_us", "us", us(meanOf(handles, func(s span) time.Duration {
		return s.dur() - covered(s, children[s.id])
	})))
	hops := byName["scheduler.hop"]
	m.set("scheduler.hop_us", "us", us(meanOf(hops, dur)))
	var linked []span
	perNode := map[string]int{}
	for _, h := range hops {
		perNode[h.note]++
		if len(children[h.id]) > 0 {
			linked = append(linked, h)
		}
	}
	m.set("scheduler.hop_overhead_us", "us", us(meanOf(linked, func(h span) time.Duration {
		return h.dur() - children[h.id][0].dur()
	})))
	busiest := 0
	for _, n := range perNode {
		busiest = max(busiest, n)
	}
	m.set("hashring.max_share", "frac", ratio(float64(busiest), float64(len(hops))))

	ds := after.sched
	dispatched := ds.Dispatched - before.sched.Dispatched
	coalesced := ds.Coalesced - before.sched.Coalesced
	hits := ds.CacheHits - before.sched.CacheHits
	m.set("scheduler.cache_hit_ratio", "frac", ratio(float64(hits), float64(hits+dispatched+coalesced)))
	m.set("scheduler.dispatched", "count", float64(dispatched))
	m.set("scheduler.coalesced", "count", float64(coalesced))
	m.set("scheduler.retried", "count", float64(ds.Retried-before.sched.Retried))

	bySource := map[string][]span{}
	shed := 0
	for _, s := range byName["simd.handle"] {
		bySource[s.note] = append(bySource[s.note], s)
		if s.status == 503 {
			shed++
		}
	}
	m.set("simd.hit_us", "us", us(meanOf(bySource["HIT"], dur)))
	m.set("simd.miss_ms", "ms", ms(meanOf(bySource["MISS"], dur)))
	m.set("simd.hits", "count", float64(len(bySource["HIT"])))
	m.set("simd.misses", "count", float64(len(bySource["MISS"])))
	m.set("simd.coalesced", "count", float64(len(bySource["COALESCED"])))
	m.set("simd.shed", "count", float64(shed))
	m.set("singleflight.coalesced", "count", float64(coalesced)+float64(len(bySource["COALESCED"])))
	m.set("sim.runs", "count", float64(len(bySource["MISS"])))

	for _, tier := range []struct {
		name string
		pick func(fleetStats) resultstore.TierStats
	}{
		{"sched", func(s fleetStats) resultstore.TierStats { return s.schedStore }},
		{"simd", func(s fleetStats) resultstore.TierStats { return s.simdStore }},
	} {
		t0, t1 := tier.pick(before), tier.pick(after)
		prefix := "resultstore." + tier.name + "."
		m.set(prefix+"get_us", "us", us(meanOf(byName[prefix+"get"], dur)))
		m.set(prefix+"set_us", "us", us(meanOf(byName[prefix+"set"], dur)))
		hits, misses := float64(t1.Hits-t0.Hits), float64(t1.Misses-t0.Misses)
		m.set(prefix+"hit_ratio", "frac", ratio(hits, hits+misses))
		// Every set that did not add an entry replaced one.
		m.set(prefix+"evictions", "count", float64(t1.Sets-t0.Sets)-float64(t1.Entries-t0.Entries))
	}
}
