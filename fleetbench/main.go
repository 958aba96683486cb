// Command fleetbench is the end-to-end benchmark of the simulation
// service: it starts an in-process fleet (one simsched in front of
// three simd replicas, built as cmd/simsched and cmd/simd build them)
// and drives it over loopback HTTP with a closed loop of two clients.
//
// Usage (run.sh builds it from source first):
//
//	fleetbench --workload cold|warm|suite-mix [--seed N] [--seconds S] [--trace 0|1]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics of a separate traced phase.  The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Any output mismatch makes the run exit 1.  README.md lists the
// metrics, their units and what each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Seeds: defaultSeed is the one measurements are tuned on; heldOutSeed
// is kept for confirming a claimed gain on data not used while the
// change was written.
const (
	defaultSeed = 1
	heldOutSeed = 20261017
)

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: cold, warm or suite-mix")
	seed := flag.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out confirmation seed: %d)", heldOutSeed))
	seconds := flag.Int("seconds", 30, "length of the timed phase in seconds (a traced run splits it in two)")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "fleetbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	wl, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(2)
	}
	printHost()

	ctx := context.Background()
	length := time.Duration(*seconds) * time.Second
	var (
		res      result
		notes    []string
		problems []string
	)
	if *trace == 0 {
		res, notes, problems, err = runUntraced(ctx, wl, *seed, length)
	} else {
		res, notes, problems, err = runTraced(ctx, wl, *seed, length)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	res.Correct = len(problems) == 0
	printTable(wl.name, res.Metrics, notes)
	for _, p := range problems {
		fmt.Printf("MISMATCH %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runUntraced sets the fleet up wl.setups times (setup_s is the median)
// and times the closed loop on the last fleet.
func runUntraced(ctx context.Context, wl *workload, seed uint64, length time.Duration) (result, []string, []string, error) {
	bodies := newBodyTable()
	var setups []time.Duration
	var (
		f  *fleet
		cs []*http.Client
	)
	for i := 0; i < wl.setups; i++ {
		if f != nil {
			closeClients(cs)
			f.Close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		f, cs, err = setUp(wl, nil, bodies)
		if err != nil {
			return result{}, nil, nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	defer f.Close()
	defer closeClients(cs)

	before := f.stats()
	steal0, total0 := cpuSteal()
	p := drive(f, cs, wl, seed, length, bodies)
	steal1, total1 := cpuSteal()
	after := f.stats()
	problems := checkPhase(ctx, wl, &p, bodies, seed, before, after)
	m, notes, err := endToEnd(&p, setups, bodies)
	if err != nil {
		return result{}, nil, nil, err
	}
	notes = append(notes, fmt.Sprintf("CPU time stolen by the hypervisor during the timed phase: %.1f%%",
		100*ratio(float64(steal1-steal0), float64(total1-total0))))
	attempted, failed := p.attempted()
	return result{Attempted: attempted, Failed: failed, Metrics: m}, notes, problems, nil
}

// runTraced times one untraced phase and one traced phase, each on a
// fresh fleet with the same request sequences and each half of length
// (so a traced run takes about as long as an untraced one), then
// derives the per-layer metrics from the traced phase and
// trace.overhead_frac from the two throughputs.
func runTraced(ctx context.Context, wl *workload, seed uint64, length time.Duration) (result, []string, []string, error) {
	length /= 2
	bodies := newBodyTable()
	var res result
	var problems []string
	var phases [2]phase
	tr := newTracer()
	var before, after fleetStats
	for i, t := range []*tracer{nil, tr} {
		f, cs, err := setUp(wl, t, bodies)
		if err != nil {
			return result{}, nil, nil, err
		}
		before = f.stats()
		if t != nil {
			t.on.Store(true)
		}
		phases[i] = drive(f, cs, wl, seed, length, bodies)
		if t != nil {
			t.on.Store(false)
		}
		after = f.stats()
		closeClients(cs)
		f.Close()
		problems = append(problems, checkPhase(ctx, wl, &phases[i], bodies, seed, before, after)...)
		attempted, failed := phases[i].attempted()
		res.Attempted += attempted
		res.Failed += failed
	}
	// before and after now bracket the traced phase.
	spans := tr.recorded()
	m := metrics{}
	spanLayers(spans, before, after, m)
	if err := simLayer(ctx, wl, m); err != nil {
		return result{}, nil, nil, err
	}
	if err := frontendsimLayer(wl, bodies, &phases[1], m); err != nil {
		return result{}, nil, nil, err
	}
	untraced, traced := phases[0].throughput(), phases[1].throughput()
	m.set("trace.overhead_frac", "frac", ratio(untraced-traced, untraced))
	res.Metrics = m
	notes := []string{
		fmt.Sprintf("throughput_rps untraced %.4g, traced %.4g", untraced, traced),
		fmt.Sprintf("spans recorded: %d", len(spans)),
	}
	return res, notes, problems, nil
}

// printHost records the host the numbers were measured on.
func printHost() {
	host := struct {
		CPU        string `json:"cpu"`
		NProc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
		Commit     string `json:"commit"`
	}{cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit()}
	b, _ := json.Marshal(host) // plain strings and ints always encode
	fmt.Printf("host %s\n", b)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSteal reads the host-wide steal and total CPU time from
// /proc/stat (zeros where it is unavailable).  On a shared virtual
// machine, steal is the first suspect when runs disagree.
func cpuSteal() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] { // user … steal
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

func printTable(workload string, m metrics, notes []string) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s\n", workload)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	for _, n := range notes {
		fmt.Printf("  # %s\n", n)
	}
}
