package main

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"

	"wroofline/internal/sim"
	"wroofline/internal/units"
	"wroofline/internal/workloads"
)

// The checkers below judge a response from its request alone: the model
// checker recomputes Eq. (1) from the request's workflow and the machine's
// published peaks, the ensemble checkers test properties every correct
// result has. None of them reads the program's own arithmetic.

// peaks are a partition's published Perlmutter peaks (the paper's
// appendix): nodes, FLOP/s, memory, PCIe and NIC bytes/s per node, the
// partition's file-system bytes/s, and the external staging bytes/s.
type peaks struct {
	nodes                          int
	flops, mem, pcie, nic, fs, ext float64
}

var perlmutter = map[string]peaks{
	"cpu": {nodes: 3072, flops: 5e12, mem: 2 * 204.8e9, nic: 25e9, fs: 4.8e12, ext: 25e9},
	"gpu": {nodes: 1792, flops: 4 * 9.7e12, mem: 4 * 1555e9, pcie: 4 * 25e9, nic: 100e9, fs: 5.6e12, ext: 25e9},
}

// ceiling is one bound as the model response reports it.
type ceiling struct {
	Name        string  `json:"name"`
	Resource    string  `json:"resource"`
	Scope       string  `json:"scope"`
	TimePerTask float64 `json:"time_per_task_s"`
	Scenario    bool    `json:"scenario"`
}

// tpsAt is Eq. (1) for one ceiling: node ceilings scale with p, system
// ceilings do not.
func (c ceiling) tpsAt(p float64) float64 {
	if c.Scope == "node" {
		return p / c.TimePerTask
	}
	return 1 / c.TimePerTask
}

type analysis struct {
	Wall           int     `json:"wall"`
	BoundAtWallTPS float64 `json:"bound_at_wall_tps"`
	WallLimitedBy  string  `json:"wall_limited_by"`
	Model          struct {
		Ceilings []ceiling `json:"ceilings"`
	} `json:"model"`
	Curve []struct {
		P        float64 `json:"p"`
		BoundTPS float64 `json:"bound_tps"`
	} `json:"curve"`
}

type modelRequest struct {
	Case     string          `json:"case"`
	Machine  string          `json:"machine"`
	Workflow json.RawMessage `json:"workflow"`
}

type inlineWorkflow struct {
	Partition string `json:"partition"`
	Tasks     []struct {
		Nodes int `json:"nodes"`
		Work  struct {
			Flops    float64 `json:"flops"`
			Mem      float64 `json:"mem_bytes"`
			PCIe     float64 `json:"pcie_bytes"`
			Net      float64 `json:"network_bytes"`
			FS       float64 `json:"fs_bytes"`
			External float64 `json:"external_bytes"`
		} `json:"work"`
	} `json:"tasks"`
}

// expectedCeilings derives the wall and the ceilings from an inline
// workflow: the heaviest task's work in each component over the per-node
// (node scope) or shared (system scope) peak. The network rides the
// per-node NIC but is drawn as a system ceiling, as in the paper's Fig 1.
func expectedCeilings(raw json.RawMessage) (wall int, cs []ceiling, err error) {
	var wf inlineWorkflow
	if err := json.Unmarshal(raw, &wf); err != nil {
		return 0, nil, fmt.Errorf("request workflow: %w", err)
	}
	pk, ok := perlmutter[wf.Partition]
	if !ok {
		return 0, nil, fmt.Errorf("no published peaks for partition %q", wf.Partition)
	}
	var maxNodes int
	var flops, mem, pcie, net, fs, ext float64
	for _, t := range wf.Tasks {
		maxNodes = max(maxNodes, t.Nodes)
		flops, mem, pcie = max(flops, t.Work.Flops), max(mem, t.Work.Mem), max(pcie, t.Work.PCIe)
		net, fs, ext = max(net, t.Work.Net), max(fs, t.Work.FS), max(ext, t.Work.External)
	}
	if maxNodes == 0 {
		return 0, nil, errors.New("request workflow has no tasks")
	}
	add := func(res, scope string, work, peak float64) {
		if work > 0 {
			cs = append(cs, ceiling{Resource: res, Scope: scope, TimePerTask: work / peak})
		}
	}
	add("compute", "node", flops, pk.flops)
	add("memory", "node", mem, pk.mem)
	add("pcie", "node", pcie, pk.pcie)
	add("network", "system", net, pk.nic)
	add("filesystem", "system", fs, pk.fs)
	add("external", "system", ext, pk.ext)
	return pk.nodes / maxNodes, cs, nil
}

// caseCeiling is a built-in case's wall and ceilings.
type caseCeiling struct {
	wall int
	cs   []ceiling
}

// caseCeilings are the built-in cases the benchmark requests, from the
// paper's published inputs and the machines' published peaks: each
// ceiling's time is the case's per-task volume over its peak.
var caseCeilings = map[string]caseCeiling{
	// Fig 1: 1 TB over the GPU partition's 5.6 TB/s file system, 1 TB per
	// node over the 100 GB/s NIC, 4 GB over 4 x 25 GB/s PCIe and
	// 100 GFLOP at 4 x 9.7 TFLOP/s; 64-node tasks on 1792 nodes.
	"example": {1792 / 64, []ceiling{
		{Resource: "filesystem", Scope: "system", TimePerTask: 1e12 / 5.6e12},
		{Resource: "network", Scope: "system", TimePerTask: 1e12 / 100e9},
		{Resource: "pcie", Scope: "node", TimePerTask: 4e9 / 100e9},
		{Resource: "compute", Scope: "node", TimePerTask: 100e9 / 38.8e12},
	}},
	// Fig 5a (LCLS on Cori Haswell): each analysis task stages 1 TB from
	// outside at 1 GB/s per stream (0.2 GB/s on bad days, drawn as a
	// scenario), moves 32 GB per node through 129 GB/s of memory and loads
	// 1 TB through the 910 GB/s burst buffer; 1024 ranks on 32-core nodes
	// make 32-node tasks on 2388 nodes.
	"lcls-cori": {2388 / 32, []ceiling{
		{Resource: "external", Scope: "node", TimePerTask: 1e12 / 1e9},
		{Resource: "external", Scope: "node", TimePerTask: 1e12 / 0.2e9, Scenario: true},
		{Resource: "memory", Scope: "node", TimePerTask: 32e9 / 129e9},
		{Resource: "filesystem", Scope: "system", TimePerTask: 1e12 / 910e9},
	}},
	// Fig 7a (BerkeleyGW, 64 nodes per task): 1164 + 3226 PFLOP over 64
	// nodes at 38.8 TFLOP/s, 168 GB per node over the 100 GB/s NIC and
	// 70 GB over the 5.6 TB/s file system, each halved because Epsilon and
	// Sigma serialize in one slot; 1792 nodes.
	"bgw-64": {1792 / 64, []ceiling{
		{Resource: "compute", Scope: "node", TimePerTask: (1164 + 3226) * 1e15 / 64 / 38.8e12 / 2},
		{Resource: "network", Scope: "system", TimePerTask: 168e9 / 100e9 / 2},
		{Resource: "filesystem", Scope: "system", TimePerTask: 70e9 / 5.6e12 / 2},
	}},
}

// sameCeilings reports whether got and want hold the same ceilings
// (resource, scope, scenario flag and time per task), in any order.
func sameCeilings(got, want []ceiling) bool {
	if len(got) != len(want) {
		return false
	}
	used := make([]bool, len(got))
	for _, w := range want {
		found := false
		for i, g := range got {
			if !used[i] && g.Resource == w.Resource && g.Scope == w.Scope &&
				g.Scenario == w.Scenario && near(g.TimePerTask, w.TimePerTask) {
				used[i], found = true, true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// boundAt evaluates the envelope at p: the minimum over the non-scenario
// ceilings, and the resource that attains it.
func boundAt(cs []ceiling, p float64) (float64, string) {
	best, res := math.Inf(1), ""
	for _, c := range cs {
		if c.Scenario {
			continue
		}
		if v := c.tpsAt(p); v < best {
			best, res = v, c.Resource
		}
	}
	return best, res
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

// checkModel checks a /v1/model response against its request: the wall
// and ceilings re-derived from the request (an inline workflow) or
// published (a built-in case), and Eq. (1) over them.
func checkModel(reqBody, body []byte) error {
	var req modelRequest
	if err := json.Unmarshal(reqBody, &req); err != nil {
		return fmt.Errorf("model request: %w", err)
	}
	var a analysis
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("model response: %w", err)
	}
	var want caseCeiling
	if req.Workflow != nil {
		var err error
		if want.wall, want.cs, err = expectedCeilings(req.Workflow); err != nil {
			return err
		}
	} else {
		var ok bool
		if want, ok = caseCeilings[req.Case]; !ok {
			return fmt.Errorf("no published ceilings for case %q", req.Case)
		}
		if !sameCeilings(a.Model.Ceilings, want.cs) {
			return fmt.Errorf("%s: ceilings differ from the paper's", req.Case)
		}
	}
	if a.Wall != want.wall {
		return fmt.Errorf("wall %d, want %d", a.Wall, want.wall)
	}
	cs := want.cs
	if len(cs) == 0 {
		return errors.New("model has no ceilings")
	}
	bound, res := boundAt(cs, float64(a.Wall))
	if !near(a.BoundAtWallTPS, bound) {
		return fmt.Errorf("bound_at_wall_tps %v, Eq. (1) gives %v", a.BoundAtWallTPS, bound)
	}
	// wall_limited_by names a ceiling of the response; its resource must be
	// the argmin (or tie with it).
	named := false
	for _, c := range a.Model.Ceilings {
		if c.Name == a.WallLimitedBy && !c.Scenario {
			named = true
			if c.Resource != res && !near(c.tpsAt(float64(a.Wall)), bound) {
				return fmt.Errorf("wall_limited_by %q is %s, argmin is %s", c.Name, c.Resource, res)
			}
		}
	}
	if !named {
		return fmt.Errorf("wall_limited_by %q names no ceiling", a.WallLimitedBy)
	}
	if req.Case == "example" && (a.Wall != 28 || !near(a.BoundAtWallTPS, 0.1) || res != "network") {
		return fmt.Errorf("example: wall %d bound %v by %s, Fig 1 has 0.1 TPS network-bound at wall 28",
			a.Wall, a.BoundAtWallTPS, res)
	}
	if len(a.Curve) == 0 {
		return errors.New("empty curve")
	}
	prev := 0.0
	for _, s := range a.Curve {
		if s.P < 1-1e-9 || s.P > float64(a.Wall)*(1+1e-9) {
			return fmt.Errorf("curve p %v outside [1, %d]", s.P, a.Wall)
		}
		if s.BoundTPS < prev*(1-1e-12) {
			return fmt.Errorf("curve decreases at p %v: %v after %v", s.P, s.BoundTPS, prev)
		}
		if b, _ := boundAt(cs, s.P); s.BoundTPS > b*(1+1e-9) {
			return fmt.Errorf("curve at p %v is %v, above ceiling %v", s.P, s.BoundTPS, b)
		}
		prev = s.BoundTPS
	}
	return nil
}

// sweepSpec is the part of a sweep request the ensemble checkers read.
type sweepSpec struct {
	Kind    string `json:"kind"`
	Case    string `json:"case"`
	Trials  int    `json:"trials"`
	Streams int    `json:"streams"`
	Sampler *struct {
		Base     string `json:"base"`
		Degraded string `json:"degraded"`
	} `json:"sampler"`
	Count    int      `json:"count"`
	Families []string `json:"families"`
	Template *struct {
		Width int `json:"width"`
		Depth int `json:"depth"`
	} `json:"template"`
}

// total is the ensemble size progress lines count towards.
func (s *sweepSpec) total() int {
	if s.Kind == "corpus" {
		return s.Count
	}
	return s.Trials
}

type table struct {
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

type sweepResponse struct {
	Kind   string  `json:"kind"`
	Tables []table `json:"tables"`
}

// num parses a report cell.
func num(cell string) (float64, error) { return strconv.ParseFloat(cell, 64) }

// le is a <= b allowing for the rounding of report cells, which carry four
// decimals or four significant digits.
func le(a, b float64) bool { return a <= b+1e-3*math.Max(math.Abs(a), math.Abs(b))+1e-4 }

// row parses a one-row table into floats.
func row(t table, width int) ([]float64, error) {
	if len(t.Rows) != 1 || len(t.Rows[0]) != width {
		return nil, fmt.Errorf("table %v: want one row of %d cells", t.Headers, width)
	}
	out := make([]float64, width)
	for i, c := range t.Rows[0] {
		v, err := num(c)
		if err != nil {
			return nil, fmt.Errorf("table %v: %w", t.Headers, err)
		}
		out[i] = v
	}
	return out, nil
}

// ordered checks that vs does not decrease, e.g. min <= p50 <= ... <= max.
func ordered(vs ...float64) error {
	for i := 1; i < len(vs); i++ {
		if !le(vs[i-1], vs[i]) {
			return fmt.Errorf("quantiles out of order: %v", vs)
		}
	}
	return nil
}

// bracketFunc returns the all-good-day and all-bad-day makespans of a Monte
// Carlo spec.
type bracketFunc func(s *sweepSpec) (lo, hi float64, err error)

// checkSweep checks a buffered /v1/sweep body (or a stream's final line).
func checkSweep(reqBody, body []byte, bracket bracketFunc) error {
	var spec sweepSpec
	if err := json.Unmarshal(reqBody, &spec); err != nil {
		return fmt.Errorf("sweep request: %w", err)
	}
	var resp sweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("sweep response: %w", err)
	}
	if resp.Kind != spec.Kind {
		return fmt.Errorf("kind %q, want %q", resp.Kind, spec.Kind)
	}
	switch spec.Kind {
	case "montecarlo":
		return checkMonteCarlo(&spec, resp.Tables, bracket)
	case "failures":
		return checkFailures(&spec, resp.Tables)
	case "corpus":
		return checkCorpus(&spec, resp.Tables)
	}
	return fmt.Errorf("no checker for kind %q", spec.Kind)
}

func checkMonteCarlo(spec *sweepSpec, ts []table, bracket bracketFunc) error {
	if len(ts) != 1 {
		return fmt.Errorf("montecarlo: %d tables, want 1", len(ts))
	}
	v, err := row(ts[0], 8) // n min p50 p90 p99 max mean p99/p50
	if err != nil {
		return err
	}
	if int(v[0]) != spec.Trials {
		return fmt.Errorf("montecarlo: n %v, want %d trials", v[0], spec.Trials)
	}
	if err := ordered(v[1:6]...); err != nil {
		return err
	}
	lo, hi, err := bracket(spec)
	if err != nil {
		return err
	}
	for _, x := range v[1:7] {
		if !le(lo, x) || !le(x, hi) {
			return fmt.Errorf("montecarlo: %v outside the all-good/all-bad day makespans [%v, %v]", x, lo, hi)
		}
	}
	return nil
}

func checkFailures(spec *sweepSpec, ts []table) error {
	if len(ts) != 4 {
		return fmt.Errorf("failures: %d tables, want 4", len(ts))
	}
	mk, err := row(ts[0], 9) // n baseline min p50 p90 p99 max mean p99/p50
	if err != nil {
		return err
	}
	if int(mk[0]) != spec.Trials {
		return fmt.Errorf("failures: n %v, want %d trials", mk[0], spec.Trials)
	}
	if err := ordered(mk[1:7]...); err != nil { // baseline <= min <= ... <= max
		return fmt.Errorf("failures: %w", err)
	}
	tps, err := row(ts[1], 5) // baseline mean p50 worst slowdown
	if err != nil {
		return err
	}
	if !le(1, tps[4]) {
		return fmt.Errorf("failures: mean slowdown %v below 1", tps[4])
	}
	if n, err := histSum(ts[3]); err != nil || n != spec.Trials {
		return fmt.Errorf("failures: retry-phase histogram sums to %d, want %d trials (%v)", n, spec.Trials, err)
	}
	return nil
}

// histSum adds a histogram's count column.
func histSum(t table) (int, error) {
	n := 0
	for _, r := range t.Rows {
		if len(r) != 2 {
			return 0, fmt.Errorf("histogram row %v", r)
		}
		c, err := strconv.Atoi(r[1])
		if err != nil {
			return 0, err
		}
		n += c
	}
	return n, nil
}

// familyTasks is each wfgen family's task count as a function of the
// template's width and depth, from the families' definitions.
var familyTasks = map[string]func(w, d int) int{
	"chain":       func(w, d int) int { return d },
	"fanout":      func(w, d int) int { return w + 2 },
	"diamond":     func(w, d int) int { return d * (w + 2) },
	"montage":     func(w, d int) int { return 3*w + 4 },
	"epigenomics": func(w, d int) int { return w*d + 4 },
}

var allFamilies = []string{"chain", "fanout", "diamond", "montage", "epigenomics"}

func checkCorpus(spec *sweepSpec, ts []table) error {
	if len(ts) != 3 {
		return fmt.Errorf("corpus: %d tables, want 3", len(ts))
	}
	fams := spec.Families
	if len(fams) == 0 {
		fams = allFamilies
	}
	w, d := 4, 3
	if spec.Template != nil {
		if spec.Template.Width > 0 {
			w = spec.Template.Width
		}
		if spec.Template.Depth > 0 {
			d = spec.Template.Depth
		}
	}
	want := map[string]int{}
	for i := 0; i < spec.Count; i++ {
		want[fams[i%len(fams)]]++
	}
	sum := 0
	for _, r := range ts[0].Rows {
		if len(r) != 5 {
			return fmt.Errorf("corpus: family row %v", r)
		}
		n, err1 := strconv.Atoi(r[1])
		tasks, err2 := strconv.Atoi(r[2])
		if err := errors.Join(err1, err2); err != nil {
			return fmt.Errorf("corpus: family row %v: %w", r, err)
		}
		shape, ok := familyTasks[r[0]]
		if !ok || n != want[r[0]] {
			return fmt.Errorf("corpus: family %s has %d scenarios, want %d", r[0], n, want[r[0]])
		}
		if tasks != n*shape(w, d) {
			return fmt.Errorf("corpus: family %s has %d tasks over %d scenarios, closed form gives %d each",
				r[0], tasks, n, shape(w, d))
		}
		sum += n
	}
	if sum != spec.Count {
		return fmt.Errorf("corpus: scenarios sum to %d, want count %d", sum, spec.Count)
	}
	dist, err := row(ts[1], 8)
	if err != nil {
		return err
	}
	if int(dist[0]) != spec.Count {
		return fmt.Errorf("corpus: distribution n %v, want %d", dist[0], spec.Count)
	}
	if err := ordered(dist[1:6]...); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	if n, err := histSum(ts[2]); err != nil || n != spec.Count {
		return fmt.Errorf("corpus: binding-ceiling histogram sums to %d, want %d (%v)", n, spec.Count, err)
	}
	return nil
}

type progressLine struct {
	Event   string `json:"event"`
	Done    int    `json:"done"`
	Total   int    `json:"total"`
	Summary struct {
		N              int
		Min, Max, Mean float64
		P50, P90, P99  float64
	} `json:"summary"`
}

// extremes returns the min and max cells of a final sweep body; every
// progress summary describes a prefix of the same trials, so its extremes
// lie between them.
func extremes(body []byte) (lo, hi float64, err error) {
	var resp sweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, 0, err
	}
	col := map[string][2]int{"montecarlo": {0, 1}, "corpus": {1, 1}, "failures": {0, 2}}[resp.Kind]
	t := resp.Tables[col[0]]
	if len(t.Rows) != 1 || len(t.Rows[0]) < col[1]+5 {
		return 0, 0, fmt.Errorf("distribution table %v", t.Headers)
	}
	lo, err1 := num(t.Rows[0][col[1]])
	hi, err2 := num(t.Rows[0][col[1]+4])
	return lo, hi, errors.Join(err1, err2)
}

// checkStream checks an NDJSON sweep stream: progress lines with done
// strictly increasing and below total, each summarizing done trials within
// the final result's range, then a final result line that passes the
// buffered checks. It returns the final line (with its newline) for the
// byte comparison against a buffered evaluation, and the progress count.
func checkStream(reqBody, body []byte, bracket bracketFunc) (final []byte, progress int, err error) {
	var spec sweepSpec
	if err := json.Unmarshal(reqBody, &spec); err != nil {
		return nil, 0, fmt.Errorf("stream request: %w", err)
	}
	if len(body) == 0 || body[len(body)-1] != '\n' {
		return nil, 0, errors.New("stream does not end in a newline")
	}
	lines := bytes.SplitAfter(body[:len(body)-1], []byte{'\n'})
	final = body[len(body)-len(lines[len(lines)-1])-1:]
	if err := checkSweep(reqBody, final, bracket); err != nil {
		return nil, 0, err
	}
	lo, hi, err := extremes(final)
	if err != nil {
		return nil, 0, fmt.Errorf("final line: %w", err)
	}
	done := 0
	for _, l := range lines[:len(lines)-1] {
		var p progressLine
		if err := json.Unmarshal(l, &p); err != nil {
			return nil, 0, fmt.Errorf("progress line: %w", err)
		}
		if p.Event != "progress" || p.Total != spec.total() || p.Done <= done || p.Done >= p.Total {
			return nil, 0, fmt.Errorf("progress line %s after done %d (total %d)", bytes.TrimSpace(l), done, spec.total())
		}
		sm := p.Summary
		if sm.N != p.Done || ordered(lo, sm.Min, sm.P50, sm.P90, sm.P99, sm.Max, hi) != nil ||
			!le(sm.Min, sm.Mean) || !le(sm.Mean, sm.Max) {
			return nil, 0, fmt.Errorf("progress summary %s inconsistent with done %d and the final range [%v, %v]",
				bytes.TrimSpace(l), p.Done, lo, hi)
		}
		done = p.Done
		progress++
	}
	return final, progress, nil
}

// checkFigure checks that an SVG body parses and has an svg root.
func checkFigure(body []byte) error {
	dec := xml.NewDecoder(bytes.NewReader(body))
	root := ""
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("svg: %w", err)
		}
		if se, ok := tok.(xml.StartElement); ok && root == "" {
			root = se.Name.Local
		}
	}
	if root != "svg" {
		return fmt.Errorf("svg: root element %q", root)
	}
	return nil
}

// brackets computes, once per (case, streams, rates), the makespans of the
// all-good-day and all-bad-day extremes of a two-state Monte Carlo spec by
// simulating the case at each rate.
type brackets struct {
	mu   sync.Mutex
	memo map[string][2]float64
}

func (b *brackets) get(s *sweepSpec) (lo, hi float64, err error) {
	if s.Sampler == nil {
		return 0, 0, errors.New("montecarlo request without a sampler")
	}
	key := fmt.Sprintf("%s/%d/%s/%s", s.Case, s.Streams, s.Sampler.Base, s.Sampler.Degraded)
	b.mu.Lock()
	defer b.mu.Unlock()
	if v, ok := b.memo[key]; ok {
		return v[0], v[1], nil
	}
	cs, err := workloads.ByName(s.Case)
	if err != nil {
		return 0, 0, err
	}
	plan, err := cs.Compile()
	if err != nil {
		return 0, 0, err
	}
	streams := max(s.Streams, 1)
	var ms [2]float64
	for i, rate := range []string{s.Sampler.Base, s.Sampler.Degraded} {
		r, err := units.ParseByteRate(rate)
		if err != nil {
			return 0, 0, err
		}
		t := sim.Trial{OverrideExternal: true, ExternalBW: units.ByteRate(streams) * r}
		if streams > 1 {
			t.ExternalPerFlowCap = r
		}
		res, err := plan.Run(t)
		if err != nil {
			return 0, 0, err
		}
		ms[i] = res.Makespan
	}
	if b.memo == nil {
		b.memo = map[string][2]float64{}
	}
	b.memo[key] = ms
	return ms[0], ms[1], nil
}

// checkResponse runs the property checkers for a response of any kind. For
// streams it returns the final line.
func checkResponse(r request, resp response, bracket bracketFunc) (final []byte, progress int, err error) {
	switch r.kind {
	case kindModel:
		return nil, 0, checkModel(r.body, resp.body)
	case kindSweep:
		return nil, 0, checkSweep(r.body, resp.body, bracket)
	case kindStream:
		if ct := resp.header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
			return nil, 0, fmt.Errorf("stream content type %q", ct)
		}
		return checkStream(r.body, resp.body, bracket)
	case kindFigure:
		return nil, 0, checkFigure(resp.body)
	}
	return nil, 0, fmt.Errorf("unknown kind %q", r.kind)
}
