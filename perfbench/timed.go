package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run builds its fleet and warms it; the
// reported setup_s is the median, and the last fleet serves the timed
// phase.
const setupRepeats = 5

// setUp starts a fleet and sends its warm pass: the fixed working set (if
// any) one request at a time, then warmRounds rounds of warm-only requests
// on both clients. Every warm response must be a 2xx.
func setUp(ctx context.Context, w *workload, seq sequence) (*fleet, error) {
	f, err := startFleet(w)
	if err != nil {
		return nil, err
	}
	cl := [clients]*httpClient{newHTTPClient(), newHTTPClient()}
	defer func() {
		for _, c := range cl {
			c.close()
		}
	}()
	for _, r := range w.warm {
		if _, _, err := cl[0].do(ctx, f.entry, r); err != nil {
			f.close()
			return nil, fmt.Errorf("warm %s %s: %w", r.kind, r.path, err)
		}
	}
	n := w.warmRounds * len(w.round)
	warmErr := make([]error, clients)
	drive(&countDispenser{end: n, ctx: ctx}, func(c, i int) {
		if _, _, err := cl[c].do(ctx, f.entry, seq.at(warmBase+i)); err != nil && warmErr[c] == nil {
			warmErr[c] = fmt.Errorf("warm request %d: %w", i, err)
		}
	})
	if err := errors.Join(warmErr...); err != nil {
		f.close()
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// setUpRepeated builds and warms the fleet setupRepeats times, closing all
// but the last, and returns it with the median set-up time in seconds.
func setUpRepeated(ctx context.Context, w *workload, seq sequence) (*fleet, float64, error) {
	times := make([]float64, 0, setupRepeats)
	var f *fleet
	for k := 0; k < setupRepeats; k++ {
		if f != nil {
			f.close()
		}
		start := time.Now()
		var err error
		if f, err = setUp(ctx, w, seq); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	sort.Float64s(times)
	return f, times[len(times)/2], nil
}

// tally is one client's record of the timed phase: latencies by kind,
// stream time-to-first-byte, completions per one-second window, and the
// failures. It keeps no per-request objects, so the benchmark's own memory
// stays flat however many requests a run completes.
type tally struct {
	lat     map[string][]time.Duration
	ttfb    []time.Duration
	windows []int
	fails   map[int]error
}

func newTally() *tally {
	return &tally{lat: map[string][]time.Duration{}, fails: map[int]error{}}
}

func (t *tally) add(kind string, sinceStart, lat, ttfb time.Duration) {
	t.lat[kind] = append(t.lat[kind], lat)
	if kind == kindStream {
		t.ttfb = append(t.ttfb, ttfb)
	}
	w := int(sinceStart / time.Second)
	for len(t.windows) <= w {
		t.windows = append(t.windows, 0)
	}
	t.windows[w]++
}

// merge folds other into t.
func (t *tally) merge(other *tally) {
	for k, ls := range other.lat {
		t.lat[k] = append(t.lat[k], ls...)
	}
	t.ttfb = append(t.ttfb, other.ttfb...)
	for len(t.windows) < len(other.windows) {
		t.windows = append(t.windows, 0)
	}
	for w, n := range other.windows {
		t.windows[w] += n
	}
	for i, err := range other.fails {
		t.fails[i] = err
	}
}

// phase is the outcome of the timed phase.
type phase struct {
	*tally
	n       int
	elapsed time.Duration
	cpu     time.Duration
	alloc   uint64
	steal   float64 // share of the host's CPU time the hypervisor took
}

// runPhase drives the fleet for d with both clients, whole rounds only,
// checking every response.
func runPhase(ctx context.Context, f *fleet, seq sequence, d time.Duration, v *verifier) phase {
	cl := [clients]*httpClient{newHTTPClient(), newHTTPClient()}
	ts := [clients]*tally{newTally(), newTally()}
	defer func() {
		for _, c := range cl {
			c.close()
		}
	}()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	steal0, ticks0 := hostSteal()
	begin := time.Now()
	disp := &roundDispenser{round: len(seq.w.round), deadline: begin.Add(d), ctx: ctx}
	elapsed := drive(disp, func(c, i int) {
		r := seq.at(i)
		start := time.Now()
		resp, ttfb, err := cl[c].do(ctx, f.entry, r)
		ts[c].add(r.kind, start.Sub(begin), time.Since(start), ttfb)
		if err == nil {
			err = v.check(i, r, resp)
		}
		if err != nil {
			ts[c].fails[i] = err
		}
	})
	cpu1 := cpuTime()
	steal1, ticks1 := hostSteal()
	runtime.ReadMemStats(&ms1)
	ts[0].merge(ts[1])
	ph := phase{tally: ts[0], n: disp.i, elapsed: elapsed, cpu: cpu1 - cpu0, alloc: ms1.TotalAlloc - ms0.TotalAlloc}
	if ticks1 > ticks0 {
		ph.steal = float64(steal1-steal0) / float64(ticks1-ticks0)
	}
	return ph
}

// runTimed is the untraced run: set-up, the timed phase, the deferred
// byte checks, and the end-to-end metrics.
func runTimed(ctx context.Context, w *workload, seed uint64, d time.Duration) (*result, error) {
	seq := sequence{w, seed}
	f, setup, err := setUpRepeated(ctx, w, seq)
	if err != nil {
		return nil, err
	}
	defer f.close()
	v := newVerifier(w, seq)
	ph := runPhase(ctx, f, seq, d, v)
	// The peak is read before the deferred checks, whose evaluations on the
	// check server would otherwise count as the service's.
	rss := rssPeakMB()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f.close()
	fails, err := v.settle(ctx)
	if err != nil {
		return nil, err
	}
	for i, e := range fails {
		if _, ok := ph.fails[i]; !ok {
			ph.fails[i] = e
		}
	}
	res := newResult()
	for k, ls := range ph.lat {
		res.attempt(k, len(ls))
	}
	for i, e := range ph.fails {
		res.fail(i, seq.at(i).kind, e)
	}
	n := float64(ph.n)
	var all []time.Duration
	for _, ls := range ph.lat {
		all = append(all, ls...)
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	res.set("setup_s", setup, "s")
	res.set("throughput_rps", medianRate(ph.windows), "1/s")
	res.set("latency_p50_ms", ms(percentile(all, 0.5)), "ms")
	res.set("latency_p90_ms", ms(percentile(all, 0.9)), "ms")
	res.set("model_p50_ms", ms(percentile(ph.lat[kindModel], 0.5)), "ms")
	res.set("sweep_p50_ms", ms(percentile(ph.lat[kindSweep], 0.5)), "ms")
	res.set("stream_p50_ms", ms(percentile(ph.lat[kindStream], 0.5)), "ms")
	res.set("stream_ttfb_p50_ms", ms(percentile(ph.ttfb, 0.5)), "ms")
	res.set("cpu_ms_per_req", ms(ph.cpu)/n, "ms")
	res.set("alloc_kb_per_req", float64(ph.alloc)/1024/n, "KB")
	res.set("rss_peak_mb", rss, "MB")
	logf("%s seed %d: %d requests in %.2fs (%.0f/s overall; round %s), p99 %.3f ms (%d samples), setup %.3fs, steal %.1f%%",
		w.name, seed, ph.n, ph.elapsed.Seconds(), n/ph.elapsed.Seconds(), roundOf(w.round),
		ms(percentile(all, 0.99)), len(all), setup, 100*ph.steal)
	return res, nil
}

// medianRate is the median completions per second over the full one-second
// windows of the phase (the last, partial window is left out); a stall of a
// shared host moves it less than the mean rate.
func medianRate(windows []int) float64 {
	full := windows
	if len(full) > 1 {
		full = full[:len(full)-1]
	}
	rates := make([]float64, len(full))
	for i, n := range full {
		rates[i] = float64(n)
	}
	sort.Float64s(rates)
	if len(rates)%2 == 1 {
		return rates[len(rates)/2]
	}
	return (rates[len(rates)/2-1] + rates[len(rates)/2]) / 2
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal reads the machine-wide steal time and total CPU time, in
// ticks, from /proc/stat: time the hypervisor gave this VM's CPUs to
// someone else shows as steal, which explains a slow run. Zeros where the
// file is unreadable.
func hostSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// cpu user nice system idle iowait irq softirq steal (guest time is
	// already inside user).
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	for _, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		steal = v
	}
	return steal, total
}

// rssPeakMB reads the process's peak resident set (VmHWM).
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
