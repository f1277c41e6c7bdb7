package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"wroofline/internal/serve"
)

// TestGateReusesUpstreamConnections pins keep-alive reuse on the upstream
// hop: N concurrent clients sending M cache hits each through the gate to
// one replica must cost about N replica connections, not one per hit. A
// pool that keeps fewer idle connections than the gate has concurrent
// requests dials and drops a connection for most of them. The bound is 2N, not N: the transport hands a finished connection back
// to its idle pool on its own goroutine, so a request that arrives just
// before that may dial one more (9 or 10 connections in about one run in
// five).
func TestGateReusesUpstreamConnections(t *testing.T) {
	const clients, hits = 8, 50
	var dials atomic.Int64
	replica := httptest.NewUnstartedServer(serve.New(serve.Config{}).Handler())
	replica.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	replica.Start()
	defer replica.Close()
	g, err := New(Config{Backends: []string{replica.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(g.Handler())
	defer front.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()

	// One distinct body per client, so the gate's singleflight cannot fold
	// concurrent clients onto one upstream request.
	body := func(c int) string { return fmt.Sprintf(`{"case":"example","curve_samples":%d}`, 16+c) }
	hit := func(c int) error {
		resp, err := client.Post(front.URL+"/v1/model", "application/json", strings.NewReader(body(c)))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	for c := 0; c < clients; c++ {
		if err := hit(c); err != nil {
			t.Fatalf("warm client %d: %v", c, err)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < hits; i++ {
				if err := hit(c); err != nil {
					t.Errorf("client %d hit %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if n := dials.Load(); n > 2*clients {
		t.Errorf("replica accepted %d connections for %d clients x %d hits, want <= %d", n, clients, hits, 2*clients)
	}
}

// TestGateUpstreamReadOneAlloc is the allocation floor of the buffered
// upstream read: a response with a Content-Length is read into one
// exactly sized buffer.
func TestGateUpstreamReadOneAlloc(t *testing.T) {
	data := bytes.Repeat([]byte("x"), 10<<10)
	rd := bytes.NewReader(data)
	resp := &http.Response{ContentLength: int64(len(data)), Body: io.NopCloser(rd)}
	var got []byte
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(data)
		var err error
		if got, err = readAll(resp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("reading a %d-byte body cost %v allocations, want 1", len(data), allocs)
	}
	if !bytes.Equal(got, data) || cap(got) != len(data) {
		t.Errorf("read %d bytes into a %d-byte buffer, want %d exactly", len(got), cap(got), len(data))
	}

	// Without a length the read still returns every byte.
	rd.Reset(data)
	resp.ContentLength = -1
	if got, err := readAll(resp); err != nil || !bytes.Equal(got, data) {
		t.Errorf("unknown-length read: %d bytes, err %v", len(got), err)
	}
}
