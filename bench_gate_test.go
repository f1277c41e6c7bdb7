// Gate-tier benchmarks: what wfgate adds on top of a replica's cache-hit
// path. The replicas are mounted behind an in-process RoundTripper (fake
// hosts resolve straight to serve handlers, no TCP), so the measured cost
// is the gate's own work — body read, canonical keying, rendezvous
// routing, singleflight, and response copying — plus the replica hit path
// it fronts. Compare against BenchmarkServe_HitParallel for the overhead:
//
//	go test . -run XXX -bench 'Benchmark(Serve|Gate)_HitParallel' -benchmem -cpu 1,4,8
//
// BenchmarkGate_HitParallel at -cpu 1 (2-vCPU VM, Go 1.24): 16.6 KB and 50
// allocs per op, of which the upstream body read is one exactly sized
// allocation (EXPERIMENTS.md, "Gate hop").
package wroofline

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"wroofline/internal/cluster"
	"wroofline/internal/serve"
)

// inprocTransport resolves fake backend hosts to in-process handlers.
type inprocTransport struct {
	handlers map[string]http.Handler
}

func (t *inprocTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.handlers[req.URL.Scheme+"://"+req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no in-process handler for %s", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// newBenchGate builds a gate over n in-process replicas.
func newBenchGate(b *testing.B, n int) http.Handler {
	b.Helper()
	tr := &inprocTransport{handlers: map[string]http.Handler{}}
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://replica-%d", i)
		tr.handlers[urls[i]] = serve.New(serve.Config{}).Handler()
	}
	g, err := cluster.New(cluster.Config{
		Backends: urls,
		Client:   &http.Client{Transport: tr},
	})
	if err != nil {
		b.Fatal(err)
	}
	return g.Handler()
}

// BenchmarkGate_HitParallel hammers one cached entry through a 3-replica
// gate from every proc: each request reads the body, canonicalizes to the
// routing key, rendezvous-hashes to the owner, and proxies to that
// replica's cache-hit path. The delta against BenchmarkServe_HitParallel
// is the per-request price of cluster routing.
func BenchmarkGate_HitParallel(b *testing.B) {
	h := newBenchGate(b, 3)
	const body = `{"case":"example"}`
	prime(b, h, "POST", "/v1/model", body)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := &discardResponseWriter{h: make(http.Header, 8)}
		br := newBenchRequest("POST", "/v1/model", body)
		for pb.Next() {
			br.do(b, h, w)
		}
	})
}
