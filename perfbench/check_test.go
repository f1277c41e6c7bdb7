package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"wroofline/internal/serve"
)

// Each checker is shown a real response (which it must accept) and the
// same response with one field altered (which it must reject).

var testServer = serve.New(serve.Config{})

// serveOnce evaluates r on an in-memory server, streaming when r is a
// stream.
func serveOnce(t *testing.T, r request) response {
	t.Helper()
	req := httptest.NewRequest(r.method(), r.path, bytes.NewReader(r.body))
	if r.kind == kindStream {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	rec := httptest.NewRecorder()
	testServer.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("%s %s: status %d: %s", r.path, r.body, rec.Code, rec.Body)
	}
	return response{status: rec.Code, header: rec.Header(), body: rec.Body.Bytes()}
}

// mutate decodes a JSON body, applies f, and re-encodes it.
func mutate(t *testing.T, body []byte, f func(m map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	f(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// cell addresses tables[tb].rows[r][c] of a sweep response.
func cell(m map[string]any, tb, r, c int) *any {
	return &m["tables"].([]any)[tb].(map[string]any)["rows"].([]any)[r].([]any)[c]
}

func cellNum(t *testing.T, m map[string]any, tb, r, c int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat((*cell(m, tb, r, c)).(string), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func fmtNum(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

type mutation struct {
	name string
	f    func(m map[string]any)
}

// expectChecks runs check on the unaltered body, then on each mutation.
func expectChecks(t *testing.T, body []byte, check func([]byte) error, muts []mutation) {
	t.Helper()
	if err := check(body); err != nil {
		t.Fatalf("unaltered response rejected: %v", err)
	}
	for _, mu := range muts {
		if err := check(mutate(t, body, mu.f)); err == nil {
			t.Errorf("%s: altered response accepted", mu.name)
		} else {
			t.Logf("%s: rejected: %v", mu.name, err)
		}
	}
}

func TestCheckModelInline(t *testing.T) {
	for _, w := range seedScanWorkflows {
		r := request{kindModel, "/v1/model", []byte(fmt.Sprintf(`{"machine":"perlmutter","workflow":%s,"curve_samples":24}`, w))}
		resp := serveOnce(t, r)
		expectChecks(t, resp.body, func(b []byte) error { return checkModel(r.body, b) }, []mutation{
			{"bound_at_wall_tps", func(m map[string]any) { m["bound_at_wall_tps"] = m["bound_at_wall_tps"].(float64) * 1.01 }},
			{"wall", func(m map[string]any) { m["wall"] = m["wall"].(float64) + 1 }},
			{"wall_limited_by", func(m map[string]any) {
				for _, c := range m["model"].(map[string]any)["ceilings"].([]any) {
					if name := c.(map[string]any)["name"].(string); name != m["wall_limited_by"] {
						m["wall_limited_by"] = name
						return
					}
				}
			}},
			{"curve decreasing", func(m map[string]any) {
				c := m["curve"].([]any)
				c[len(c)-1].(map[string]any)["bound_tps"] = c[0].(map[string]any)["bound_tps"].(float64) * 0.5
			}},
			{"curve above a ceiling", func(m map[string]any) {
				c := m["curve"].([]any)
				c[len(c)-1].(map[string]any)["bound_tps"] = c[len(c)-1].(map[string]any)["bound_tps"].(float64) * 2
			}},
		})
	}
}

func TestCheckModelCase(t *testing.T) {
	for _, body := range []string{`{"case":"example"}`, `{"case":"lcls-cori","curve_samples":32}`, `{"case":"bgw-64"}`} {
		r := request{kindModel, "/v1/model", []byte(body)}
		resp := serveOnce(t, r)
		expectChecks(t, resp.body, func(b []byte) error { return checkModel(r.body, b) }, []mutation{
			{"bound_at_wall_tps", func(m map[string]any) { m["bound_at_wall_tps"] = m["bound_at_wall_tps"].(float64) * 0.99 }},
			{"wall_limited_by", func(m map[string]any) { m["wall_limited_by"] = "Compute: nothing" }},
			{"ceiling time", func(m map[string]any) {
				for _, c := range m["model"].(map[string]any)["ceilings"].([]any) {
					c.(map[string]any)["time_per_task_s"] = c.(map[string]any)["time_per_task_s"].(float64) * 3
				}
			}},
			// Ceilings, bound and curve that agree with each other but not
			// with the paper.
			{"ceilings and bound scaled together", func(m map[string]any) {
				for _, c := range m["model"].(map[string]any)["ceilings"].([]any) {
					c.(map[string]any)["time_per_task_s"] = c.(map[string]any)["time_per_task_s"].(float64) * 2
				}
				m["bound_at_wall_tps"] = m["bound_at_wall_tps"].(float64) / 2
				for _, s := range m["curve"].([]any) {
					s.(map[string]any)["bound_tps"] = s.(map[string]any)["bound_tps"].(float64) / 2
				}
			}},
			{"last ceiling dropped", func(m map[string]any) {
				mo := m["model"].(map[string]any)
				cs := mo["ceilings"].([]any)
				mo["ceilings"] = cs[:len(cs)-1]
			}},
		})
	}
}

var testBrackets = &brackets{}

func TestCheckMonteCarlo(t *testing.T) {
	r := request{kindSweep, "/v1/sweep", mcSpec(256, 5, 5)}
	resp := serveOnce(t, r)
	check := func(b []byte) error { return checkSweep(r.body, b, testBrackets.get) }
	expectChecks(t, resp.body, check, []mutation{
		{"n", func(m map[string]any) { *cell(m, 0, 0, 0) = "255" }},
		{"p50 above p90", func(m map[string]any) { *cell(m, 0, 0, 2) = fmtNum(cellNum(t, m, 0, 0, 3) * 1.5) }},
		{"min below the all-good day", func(m map[string]any) { *cell(m, 0, 0, 1) = fmtNum(cellNum(t, m, 0, 0, 1) * 0.5) }},
		{"max above the all-bad day", func(m map[string]any) { *cell(m, 0, 0, 5) = fmtNum(cellNum(t, m, 0, 0, 5) * 1.5) }},
	})
}

func TestCheckFailures(t *testing.T) {
	r := request{kindSweep, "/v1/sweep", []byte(fmt.Sprintf(failuresSpec, 9))}
	resp := serveOnce(t, r)
	check := func(b []byte) error { return checkSweep(r.body, b, testBrackets.get) }
	expectChecks(t, resp.body, check, []mutation{
		{"n", func(m map[string]any) { *cell(m, 0, 0, 0) = "63" }},
		{"baseline above min", func(m map[string]any) { *cell(m, 0, 0, 1) = fmtNum(cellNum(t, m, 0, 0, 2) * 1.5) }},
		{"mean slowdown below 1", func(m map[string]any) { *cell(m, 1, 0, 4) = "0.5" }},
		{"histogram sum", func(m map[string]any) {
			*cell(m, 3, 0, 1) = strconv.Itoa(int(cellNum(t, m, 3, 0, 1)) + 1)
		}},
	})
}

func TestCheckCorpus(t *testing.T) {
	r := request{kindSweep, "/v1/sweep", []byte(fmt.Sprintf(corpusCold, 10, 3))}
	resp := serveOnce(t, r)
	check := func(b []byte) error { return checkSweep(r.body, b, testBrackets.get) }
	expectChecks(t, resp.body, check, []mutation{
		{"family tasks", func(m map[string]any) { *cell(m, 0, 1, 2) = strconv.Itoa(int(cellNum(t, m, 0, 1, 2)) + 1) }},
		{"family scenarios", func(m map[string]any) { *cell(m, 0, 0, 1) = "3" }},
		{"distribution n", func(m map[string]any) { *cell(m, 1, 0, 0) = "11" }},
		{"histogram sum", func(m map[string]any) { *cell(m, 2, 0, 1) = strconv.Itoa(int(cellNum(t, m, 2, 0, 1)) + 1) }},
		{"kind", func(m map[string]any) { m["kind"] = "montecarlo" }},
	})
}

// streamLines splits an NDJSON body into lines; every line but the last
// keeps its newline.
func streamLines(body []byte) [][]byte {
	return bytes.SplitAfter(bytes.TrimSuffix(body, []byte{'\n'}), []byte{'\n'})
}

func TestCheckStream(t *testing.T) {
	r := request{kindStream, "/v1/sweep", mcSpec(4096, 77, 1)}
	resp := serveOnce(t, r)
	final, progress, err := checkStream(r.body, resp.body, testBrackets.get)
	if err != nil {
		t.Fatalf("unaltered stream rejected: %v", err)
	}
	lines := streamLines(resp.body)
	if progress < 2 {
		t.Skipf("stream carried %d progress lines; the ordering cases need two", progress)
	}
	join := func(ls ...[]byte) []byte {
		var b []byte
		for _, l := range ls {
			b = append(b, bytes.TrimSuffix(l, []byte{'\n'})...)
			b = append(b, '\n')
		}
		return b
	}
	last := len(lines) - 1
	cases := map[string][]byte{
		"done repeats":   join(append([][]byte{lines[0], lines[0]}, lines[1:]...)...),
		"done decreases": join(append([][]byte{lines[1], lines[0]}, lines[2:]...)...),
		"done reaches total": join(lines[0], mutate(t, lines[1], func(m map[string]any) {
			m["done"] = m["total"]
		}), lines[last]),
		"final line altered": join(append(append([][]byte{}, lines[:last]...), mutate(t, lines[last], func(m map[string]any) {
			*cell(m, 0, 0, 0) = "1"
		}))...),
		"no final line": join(lines[:last]...),
		"summary n": join(append([][]byte{mutate(t, lines[0], func(m map[string]any) {
			m["summary"].(map[string]any)["n"] = m["done"].(float64) + 1
		})}, lines[1:]...)...),
		"summary p50 above max": join(append([][]byte{mutate(t, lines[0], func(m map[string]any) {
			sm := m["summary"].(map[string]any)
			sm["p50"] = sm["max"].(float64) * 2
		})}, lines[1:]...)...),
		"prefix outside the final range": join(append([][]byte{mutate(t, lines[0], func(m map[string]any) {
			sm := m["summary"].(map[string]any)
			sm["min"], sm["p50"] = 1.0, 1.0
		})}, lines[1:]...)...),
	}
	for name, body := range cases {
		if _, _, err := checkStream(r.body, body, testBrackets.get); err == nil {
			t.Errorf("%s: altered stream accepted", name)
		}
	}
	if !bytes.Equal(final, append(append([]byte{}, lines[last]...), '\n')) {
		t.Fatalf("final line %q, want %q", final, lines[last])
	}
}

func TestCheckFigure(t *testing.T) {
	body := serveOnce(t, clusterHitSet[kindFigure][0].req).body
	if err := checkFigure(body); err != nil {
		t.Fatalf("unaltered figure rejected: %v", err)
	}
	if checkFigure(body[:len(body)/2]) == nil {
		t.Error("truncated SVG accepted")
	}
	if checkFigure(bytes.Replace(body, []byte("<svg"), []byte("<svx"), 1)) == nil {
		t.Error("SVG with a wrong root accepted")
	}
}

// TestVerifierReferences checks the byte comparisons against the check
// server: a gate response must match it in body and ETag, and a stream's
// final line must equal the buffered evaluation.
func TestVerifierReferences(t *testing.T) {
	hit := mixes["cluster-hit"]
	v := newVerifier(hit, sequence{hit, 1})
	for _, r := range hit.warm {
		resp := serveOnce(t, r)
		if err := v.check(0, r, resp); err != nil {
			t.Fatalf("%s %s: unaltered response rejected: %v", r.kind, r.body, err)
		}
		// Flip a byte of the body (of a stream, of its final line).
		altered := resp
		altered.body = append([]byte{}, resp.body...)
		altered.body[len(altered.body)-1-len(streamLines(resp.body)[len(streamLines(resp.body))-1])/2] ^= 1
		if v.check(0, r, altered) == nil {
			t.Errorf("%s %s: altered body accepted", r.kind, r.body)
		}
		if r.kind != kindStream {
			altered = resp
			altered.header = resp.header.Clone()
			altered.header.Set("ETag", `"sha256-0"`)
			if v.check(0, r, altered) == nil {
				t.Errorf("%s %s: altered ETag accepted", r.kind, r.body)
			}
		}
	}

	cold := mixes["cold-explore"]
	seq := sequence{cold, 3}
	v = newVerifier(cold, seq)
	for i := 0; i < len(cold.round); i++ {
		r := seq.at(i)
		resp := serveOnce(t, r)
		if err := v.check(i, r, resp); err != nil {
			t.Fatalf("request %d: unaltered response rejected: %v", i, err)
		}
	}
	d := v.deferred[0]
	if err := v.compare(d); err != nil {
		t.Fatalf("unaltered deferred check failed: %v", err)
	}
	d.sum = sha256.Sum256([]byte("other"))
	if v.compare(d) == nil {
		t.Error("altered body accepted by the deferred comparison")
	}
	for _, d := range v.deferred {
		if !d.stream {
			d.etag = `"sha256-0"`
			if v.compare(d) == nil {
				t.Error("altered ETag accepted by the deferred comparison")
			}
			break
		}
	}
}

// TestSequenceDeterministic pins that a seed fixes the request stream and
// that each round carries the workload's exact mix.
func TestSequenceDeterministic(t *testing.T) {
	for name, w := range mixes {
		a, b, c := sequence{w, 5}, sequence{w, 5}, sequence{w, 6}
		same := 0
		counts := map[string]int{}
		for i := 0; i < 3*len(w.round); i++ {
			ra, rb, rc := a.at(i), b.at(i), c.at(i)
			if ra.kind != rb.kind || !bytes.Equal(ra.body, rb.body) {
				t.Fatalf("%s: request %d differs between two sequences of one seed", name, i)
			}
			if bytes.Equal(ra.body, rc.body) {
				same++
			}
			counts[ra.kind]++
		}
		for _, slot := range w.round {
			kind, _, _ := strings.Cut(slot, "/")
			counts[kind] -= 3
		}
		for k, n := range counts {
			if n != 0 {
				t.Errorf("%s: kind %s off the round mix by %d over three rounds", name, k, n)
			}
		}
		if name != "cluster-hit" && same > 0 {
			t.Errorf("%s: %d requests repeat across seeds", name, same)
		}
	}
}
