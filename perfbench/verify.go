package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"

	"wroofline/internal/serve"
)

// verifier checks every response of a run. Besides the property checks it
// compares bytes against a check-only server: a fresh single serve.Server
// with the plan cache off, driven in memory, whose caches no timed request
// ever touched.
//
//   - cluster-hit: every response must equal the check server's response
//     for the same request (body and ETag; for a stream, the final line
//     equals the buffered body). The references pass the property checks
//     once, at set-up.
//   - seed-scan and cold-explore: a stream's final line, and on the gated
//     workload every response, is hashed during the run and compared after
//     it with the check server's buffered evaluation of the same spec.
type verifier struct {
	w       *workload
	seq     sequence
	br      *brackets
	checkSv *serve.Server
	refs    map[string]ref

	// noProgress counts the evaluated streams that reached the client with
	// no progress line. A stream answered from the response cache carries
	// the result line alone by design, so cluster-hit's streams, all
	// cache hits, are not counted; on the other workloads every stream is
	// a fresh spec.
	noProgress atomic.Int64

	mu       sync.Mutex
	deferred []deferredCheck
}

// ref is a check-server response and the outcome of its property checks.
type ref struct {
	body []byte
	etag string
	err  error
}

type deferredCheck struct {
	i      int
	stream bool
	sum    [sha256.Size]byte
	etag   string
}

func newVerifier(w *workload, seq sequence) *verifier {
	v := &verifier{w: w, seq: seq, br: &brackets{},
		checkSv: serve.New(serve.Config{PlanCacheEntries: -1})}
	if w.warm != nil {
		v.refs = map[string]ref{}
		for _, r := range w.warm {
			resp := v.reference(r)
			rf := ref{body: resp.body, etag: resp.header.Get("ETag")}
			if resp.status != http.StatusOK {
				rf.err = fmt.Errorf("check server: status %d", resp.status)
			} else if r.kind == kindStream {
				rf.err = checkSweep(r.body, resp.body, v.br.get)
			} else {
				_, _, rf.err = checkResponse(r, resp, v.br.get)
			}
			v.refs[refKey(r)] = rf
		}
	}
	return v
}

func refKey(r request) string { return r.kind + " " + r.path + " " + string(r.body) }

// reference evaluates r on the check server, buffered.
func (v *verifier) reference(r request) response {
	req := httptest.NewRequest(r.method(), r.path, bytes.NewReader(r.body))
	rec := httptest.NewRecorder()
	v.checkSv.Handler().ServeHTTP(rec, req)
	return response{status: rec.Code, header: rec.Header(), body: rec.Body.Bytes()}
}

// check judges response i during the run.
func (v *verifier) check(i int, r request, resp response) error {
	if v.refs != nil {
		rf, ok := v.refs[refKey(r)]
		if !ok {
			return fmt.Errorf("no reference for %s", refKey(r))
		}
		got := resp.body
		if r.kind == kindStream {
			final, _, err := checkStream(r.body, resp.body, v.br.get)
			if err != nil {
				return err
			}
			got = final
		} else if etag := resp.header.Get("ETag"); etag != rf.etag {
			return fmt.Errorf("ETag %s, single server gives %s", etag, rf.etag)
		}
		if !bytes.Equal(got, rf.body) {
			return fmt.Errorf("body differs from the single server's (%d vs %d bytes)", len(got), len(rf.body))
		}
		return rf.err
	}
	final, progress, err := checkResponse(r, resp, v.br.get)
	if err != nil {
		return err
	}
	if r.kind == kindStream {
		if progress == 0 {
			v.noProgress.Add(1)
		}
		v.later(deferredCheck{i: i, stream: true, sum: sha256.Sum256(final)})
	} else if v.w.gated {
		v.later(deferredCheck{i: i, sum: sha256.Sum256(resp.body), etag: resp.header.Get("ETag")})
	}
	return nil
}

func (v *verifier) later(d deferredCheck) {
	v.mu.Lock()
	v.deferred = append(v.deferred, d)
	v.mu.Unlock()
}

// settle runs the deferred byte comparisons on the check server and
// returns the failures by request index.
func (v *verifier) settle(ctx context.Context) (map[int]error, error) {
	v.mu.Lock()
	ds := v.deferred
	v.deferred = nil
	v.mu.Unlock()
	fails := map[int]error{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan deferredCheck)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range work {
				if err := v.compare(d); err != nil {
					mu.Lock()
					fails[d.i] = err
					mu.Unlock()
				}
			}
		}()
	}
	for _, d := range ds {
		if ctx.Err() != nil {
			break
		}
		work <- d
	}
	close(work)
	wg.Wait()
	return fails, ctx.Err()
}

func (v *verifier) compare(d deferredCheck) error {
	r := v.seq.at(d.i)
	want := v.reference(r)
	if want.status != http.StatusOK {
		return fmt.Errorf("check server: status %d", want.status)
	}
	if sha256.Sum256(want.body) != d.sum {
		if d.stream {
			return fmt.Errorf("stream's final line differs from the buffered evaluation on a single server")
		}
		return fmt.Errorf("gate body differs from a single server's")
	}
	if !d.stream && d.etag != want.header.Get("ETag") {
		return fmt.Errorf("gate ETag %s, single server gives %s", d.etag, want.header.Get("ETag"))
	}
	return nil
}
