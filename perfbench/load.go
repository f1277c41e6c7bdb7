package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// clients is the closed-loop client count: each waits for its reply before
// sending again, as dashboards and scan scripts do.
const clients = 2

// outcome is one completed request.
type outcome struct {
	i     int
	kind  string
	start time.Time
	lat   time.Duration
	err   error
}

// dispenser hands out request indices to the clients.
type dispenser interface {
	next() (int, bool)
}

// roundDispenser hands out indices until the deadline has passed and the
// current round is complete, so every run sends whole rounds.
type roundDispenser struct {
	mu       sync.Mutex
	i, round int
	deadline time.Time
	done     bool
	ctx      context.Context
}

func (d *roundDispenser) next() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.done || d.ctx.Err() != nil || (d.i%d.round == 0 && time.Now().After(d.deadline)) {
		d.done = true
		return 0, false
	}
	d.i++
	return d.i - 1, true
}

// countDispenser hands out indices [0, end).
type countDispenser struct {
	mu     sync.Mutex
	i, end int
	ctx    context.Context
}

func (d *countDispenser) next() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.i >= d.end || d.ctx.Err() != nil {
		return 0, false
	}
	d.i++
	return d.i - 1, true
}

// drive runs the clients until the dispenser is empty, calling send for
// each index on its client, and returns the wall time from start to the
// last completion.
func drive(d dispenser, send func(c, i int)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i, ok := d.next()
				if !ok {
					return
				}
				send(c, i)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// driveAll is drive for a fixed index range [0, n), keeping every outcome.
func driveAll(ctx context.Context, n int, send func(c, i int) outcome) []outcome {
	outs := make([]outcome, n)
	drive(&countDispenser{end: n, ctx: ctx}, func(c, i int) { outs[i] = send(c, i) })
	if ctx.Err() != nil {
		return nil
	}
	return outs
}

// response is a fully read HTTP response.
type response struct {
	status int
	header http.Header
	body   []byte
}

// httpClient is one closed-loop client on one connection.
type httpClient struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newHTTPClient() *httpClient {
	return &httpClient{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// do sends r to base and reads the whole body. ttfb is the time to the
// first body byte. The returned body aliases the client's buffer and is
// valid until the next call.
func (c *httpClient) do(ctx context.Context, base string, r request) (resp response, ttfb time.Duration, err error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method(), base+r.path, body)
	if err != nil {
		return resp, 0, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if r.kind == kindStream {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	start := time.Now()
	hr, err := c.hc.Do(req)
	if err != nil {
		return resp, 0, err
	}
	defer hr.Body.Close()
	c.buf.Reset()
	var chunk [4096]byte
	for {
		n, rerr := hr.Body.Read(chunk[:])
		if n > 0 {
			if c.buf.Len() == 0 {
				ttfb = time.Since(start)
			}
			c.buf.Write(chunk[:n])
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return resp, ttfb, fmt.Errorf("read body: %w", rerr)
		}
	}
	resp = response{status: hr.StatusCode, header: hr.Header, body: c.buf.Bytes()}
	if hr.StatusCode/100 != 2 {
		return resp, ttfb, fmt.Errorf("status %d: %.200s", hr.StatusCode, resp.body)
	}
	return resp, ttfb, nil
}

// percentile returns the q-quantile (0..1) of ds by nearest rank; ds is
// sorted in place.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	k := int(q*float64(len(ds))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(ds) {
		k = len(ds) - 1
	}
	return ds[k]
}
