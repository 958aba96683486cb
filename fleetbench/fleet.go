package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/simd"
	"repro/pkg/frontendsim"
	"repro/pkg/membership"
	"repro/pkg/obs"
	"repro/pkg/resultstore"
	"repro/pkg/scheduler"
)

// Fleet shape and the cmd/simd and cmd/simsched default flag values it
// is built with.
const (
	replicas         = 3
	storeEntries     = 512 // -cache on both binaries
	admissionQueue   = 64  // simd -max-queue
	admissionWait    = 5 * time.Second
	dispatchTimeout  = 10 * time.Minute
	retryBackoff     = 5 * time.Millisecond
	breakerThreshold = 3
	breakerCooldown  = 5 * time.Second
	hintLimit        = 256
	probeInterval    = 2 * time.Second
	probeTimeout     = time.Second
	quarantineAfter  = 3
	evictAfter       = time.Minute
)

// replicaHost is replica i's logical host name and replicaURL its base
// URL, shaped like the backends in cmd/simsched's usage example.  The
// ring hashes these names rather than the listeners' ephemeral ports,
// so every fleet build routes a key to the same replica; the
// scheduler's dialer maps each name to its real listener.  (On these
// names the ring puts ~42% of keys on the busiest replica; on
// "http://simd-0".."-2" it would put ~71% there, more than the warm
// working set fits in one 512-entry store.)
func replicaHost(i int) string { return fmt.Sprintf("sim-%d", i+1) }
func replicaURL(i int) string  { return "http://" + replicaHost(i) + ":8723" }

// fleet is one simsched in front of three simd replicas, in process and
// over loopback HTTP, built from the same public constructors as the
// two binaries.
type fleet struct {
	url        string // simsched base URL
	sched      *scheduler.Scheduler
	schedStore *resultstore.Memory
	simdStores []*resultstore.Memory
	members    *membership.Registry
	transport  *http.Transport // simsched → simd, dialing logical names
	servers    []*http.Server
	wg         sync.WaitGroup
}

// startFleet builds and starts a fleet.  A non-nil tracer wraps every
// layer boundary the benchmark times: both tiers' handlers, the
// scheduler's transport, and every response store.
func startFleet(tr *tracer) (*fleet, error) {
	f := &fleet{}
	addrs := map[string]string{}
	var urls []string
	for i := 0; i < replicas; i++ {
		store := resultstore.NewMemory(storeEntries)
		f.simdStores = append(f.simdStores, store)
		api := simd.NewServerWithStore(frontendsim.New(), tr.store("simd", store),
			simd.WithMetrics(obs.NewRegistry()),
			simd.WithMaxBodyBytes(simd.DefaultMaxBodyBytes),
			simd.WithAdmission(admissionQueue, admissionWait))
		addr, err := f.serve(tr.handler("simd.handle", api))
		if err != nil {
			f.Close()
			return nil, err
		}
		addrs[replicaHost(i)] = addr
		urls = append(urls, replicaURL(i))
	}

	f.transport = http.DefaultTransport.(*http.Transport).Clone()
	f.transport.Proxy = nil
	var dialer net.Dialer
	f.transport.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		host, _, err := net.SplitHostPort(addr)
		if err != nil {
			return nil, err
		}
		real, ok := addrs[host]
		if !ok {
			return nil, fmt.Errorf("fleetbench: no replica named %q", host)
		}
		return dialer.DialContext(ctx, network, real)
	}

	metrics := obs.NewRegistry()
	f.schedStore = resultstore.NewMemory(storeEntries)
	cache := tr.store("sched", f.schedStore)
	resultstore.RegisterMetrics(metrics, cache)
	// members is assigned before the server accepts a request, as in
	// cmd/simsched.
	var members *membership.Registry
	sched, err := scheduler.New(frontendsim.New(), scheduler.Config{
		Backends:         urls,
		HTTPClient:       &http.Client{Timeout: dispatchTimeout, Transport: tr.transport(f.transport)},
		Cache:            cache,
		Metrics:          metrics,
		RetryBackoff:     retryBackoff,
		BreakerThreshold: breakerThreshold,
		BreakerCooldown:  breakerCooldown,
		HintLimit:        hintLimit,
		ReportDispatch: func(node string, err error) {
			if members != nil {
				members.ReportDispatch(node, err)
			}
		},
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	f.sched = sched
	members, err = membership.New(membership.Config{
		ProbeInterval:   probeInterval,
		ProbeTimeout:    probeTimeout,
		QuarantineAfter: quarantineAfter,
		EvictAfter:      evictAfter,
		HTTPClient:      &http.Client{Timeout: probeTimeout, Transport: f.transport},
		OnChange:        sched.OnMembershipChange(),
		OnTransition:    sched.OnMembershipTransition(),
		Metrics:         metrics,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "fleetbench: "+format+"\n", args...)
		},
	}, urls)
	if err != nil {
		f.Close()
		return nil, err
	}
	f.members = members
	members.Start()

	api := scheduler.NewServer(sched,
		scheduler.WithMembership(members),
		scheduler.WithMetrics(metrics),
		scheduler.WithMaxBodyBytes(scheduler.DefaultMaxBodyBytes))
	addr, err := f.serve(tr.handler("scheduler.handle", api))
	if err != nil {
		f.Close()
		return nil, err
	}
	f.url = "http://" + addr
	return f, nil
}

// serve starts h on a fresh loopback listener and returns its address.
func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("fleetbench: listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.servers = append(f.servers, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// Close stops the probe loop and every server, waits for the serve
// loops to exit, and closes the stores.
func (f *fleet) Close() {
	if f.members != nil {
		f.members.Close()
	}
	for _, srv := range f.servers {
		srv.Close()
	}
	f.wg.Wait()
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
	if f.schedStore != nil {
		f.schedStore.Close()
	}
	for _, s := range f.simdStores {
		s.Close()
	}
}

// fleetStats is a snapshot of the counters the fleet keeps itself.
type fleetStats struct {
	sched      scheduler.Stats
	schedStore resultstore.TierStats
	simdStore  resultstore.TierStats // summed over the replicas
}

func (f *fleet) stats() fleetStats {
	st := fleetStats{sched: f.sched.Stats(), schedStore: f.schedStore.Stats()[0]}
	for _, s := range f.simdStores {
		t := s.Stats()[0]
		st.simdStore.Entries += t.Entries
		st.simdStore.Hits += t.Hits
		st.simdStore.Misses += t.Misses
		st.simdStore.Sets += t.Sets
	}
	return st
}
