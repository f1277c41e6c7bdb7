package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"wroofline/internal/cluster"
	"wroofline/internal/serve"
)

// fleet is one workload's service: replicas (serve.New) and, for gated
// workloads, a gate (cluster.New), each on its own 127.0.0.1 listener in
// this process, configured as cmd/wfserved and cmd/wfgate configure them.
type fleet struct {
	replicas    []*serve.Server
	replicaURLs []string
	gate        *cluster.Gate
	entry       string // base URL the clients talk to

	servers    []*http.Server
	wg         sync.WaitGroup
	stopProbes context.CancelFunc
	closeOnce  sync.Once
}

// startFleet binds every listener first (replicas name each other as
// peers), then starts serving. On error everything already started is
// closed.
func startFleet(w *workload) (f *fleet, err error) {
	f = &fleet{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	lns := make([]net.Listener, w.replicas)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return f, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		f.replicaURLs = append(f.replicaURLs, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		var peers []string
		if w.gated {
			for j, u := range f.replicaURLs {
				if j != i {
					peers = append(peers, u)
				}
			}
		}
		s := serve.New(serve.Config{CacheEntries: w.cacheEntries, PlanCacheEntries: w.planEntries, Peers: peers})
		f.replicas = append(f.replicas, s)
		f.serve(ln, s.Handler())
	}
	f.entry = f.replicaURLs[0]
	if !w.gated {
		return f, nil
	}
	g, err := cluster.New(cluster.Config{Backends: f.replicaURLs})
	if err != nil {
		return f, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return f, fmt.Errorf("listen: %w", err)
	}
	var ctx context.Context
	ctx, f.stopProbes = context.WithCancel(context.Background())
	g.Start(ctx)
	f.gate = g
	f.entry = "http://" + ln.Addr().String()
	f.serve(ln, g.Handler())
	return f, nil
}

func (f *fleet) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.servers = append(f.servers, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("server %s: %v", ln.Addr(), err)
		}
	}()
}

// close stops the probe loop, closes every listener and connection, and
// waits for the serve loops to return. Safe to call more than once.
func (f *fleet) close() {
	f.closeOnce.Do(func() {
		if f.stopProbes != nil {
			f.stopProbes()
		}
		for _, s := range f.servers {
			s.Close()
		}
		f.wg.Wait()
	})
}

// counters is the sum of the fleet's public counter snapshots.
type counters struct {
	gate                      cluster.Snapshot
	hits, misses, evaluations uint64
	sheds                     uint64
	planHits, planMisses      uint64
	planEvictions             uint64
}

func (f *fleet) counters() counters {
	var c counters
	if f.gate != nil {
		c.gate = f.gate.MetricsSnapshot()
	}
	for _, s := range f.replicas {
		snap := s.MetricsSnapshot()
		c.hits += snap.Cache.Hits
		c.misses += snap.Cache.Misses
		c.evaluations += snap.Evaluations
		c.sheds += snap.QueueSheds + snap.RateSheds + snap.QueueTimeouts + snap.EvalTimeouts
		if st, ok := s.PlanCacheStats(); ok {
			c.planHits += st.Hits
			c.planMisses += st.Misses
			c.planEvictions += st.Evictions
		}
	}
	return c
}
