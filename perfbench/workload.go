package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Request kinds. Every workload sends all three scored kinds (model, sweep,
// stream); cluster-hit also fetches a figure.
const (
	kindModel  = "model"
	kindSweep  = "sweep"
	kindStream = "stream"
	kindFigure = "figure"
)

var kinds = []string{kindModel, kindSweep, kindStream, kindFigure}

// request is one generated call. The body is all the program receives; the
// checkers re-derive what they need from it.
type request struct {
	kind string
	path string // "/v1/model", "/v1/sweep", or a figure path (GET)
	body []byte // nil for GET
}

func (r request) method() string {
	if r.body == nil {
		return "GET"
	}
	return "POST"
}

// workload describes one traffic mix and the topology it runs against.
type workload struct {
	name string
	// gated routes every request through wfgate in front of replicas
	// replicas; otherwise the clients talk to a single replica directly.
	gated    bool
	replicas int
	// cacheEntries and planEntries size each replica's response cache and
	// plan cache (0 keeps the wfserved defaults).
	cacheEntries, planEntries int
	// round lists the request slots of one round, "kind" or "kind/variant";
	// every run sends whole rounds, so the mix is exact. The seed shuffles
	// each round's order.
	round []string
	// gen builds the request for one slot from a per-request hash h.
	gen func(slot string, h uint64) request
	// warmRounds is how many rounds of warm-only requests set-up sends.
	warmRounds int
	// warm, when set, lists fixed requests set-up sends before the warm
	// rounds (the working set of cluster-hit).
	warm []request
	// tracedRounds sizes a traced run: it replays --seconds x tracedRounds
	// rounds, a fixed count, so its per-layer counts repeat. The values
	// keep a traced run about as long as an untraced one.
	tracedRounds int
}

// splitmix64 is the request-stream mixer: a bijective finalizer, so
// distinct (seed, index) pairs give distinct request hashes.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// warmBase offsets the index space of warm-pass requests, so no timed
// request repeats a warm one.
const warmBase = 1 << 40

// sequence is the request stream a seed generates: request i is a pure
// function of (workload, seed, i), so every run with a seed sends the same
// requests in the same order.
type sequence struct {
	w    *workload
	seed uint64
}

// at returns request i of the stream.
func (s sequence) at(i int) request {
	r := len(s.w.round)
	round, pos := i/r, i%r
	perm := rand.New(rand.NewSource(int64(splitmix64(s.seed ^ uint64(round)*0x2545f4914f6cdd1d)))).Perm(r)
	h := splitmix64(splitmix64(s.seed) + uint64(i))
	return s.w.gen(s.w.round[perm[pos]], h)
}

// fresh maps a request hash onto a JSON-safe seed value.
func fresh(h uint64) uint64 { return h >> 20 }

// mix repeats each slot n times in one round.
func mix(counts ...any) []string {
	var out []string
	for i := 0; i < len(counts); i += 2 {
		for j := 0; j < counts[i+1].(int); j++ {
			out = append(out, counts[i].(string))
		}
	}
	return out
}

const twoState = `"sampler":{"model":"twostate","base":"1 GB/s","degraded":"0.2 GB/s","p_bad":0.4}`

func mcSpec(trials int, seed uint64, streams int) []byte {
	return []byte(fmt.Sprintf(`{"kind":"montecarlo","case":"lcls-cori","trials":%d,"seed":%d,"streams":%d,%s}`,
		trials, seed, streams, twoState))
}

// item is one request of a fixed working set with its weight within its
// kind.
type item struct {
	weight int
	req    request
}

// pick draws an item of set by weight from a request hash.
func pick(set []item, h uint64) request {
	total := 0
	for _, it := range set {
		total += it.weight
	}
	x := int(h % uint64(total))
	for _, it := range set {
		if x -= it.weight; x < 0 {
			return it.req
		}
	}
	panic("pick: weights exhausted") // unreachable: x < total
}

func modelItem(weight int, body string) item {
	return item{weight, request{kindModel, "/v1/model", []byte(body)}}
}

// clusterHitSet is cluster-hit's fixed working set, by kind. The model
// weights are wfload's hit-heavy ones (internal/loadgen: example 40,
// lcls-cori 15, bgw-64 15, example at three curve_samples values 10),
// scaled to 24:9:9:2:2:2.
var clusterHitSet = map[string][]item{
	kindModel: {
		modelItem(24, `{"case":"example"}`),
		modelItem(9, `{"case":"lcls-cori"}`),
		modelItem(9, `{"case":"bgw-64"}`),
		modelItem(2, `{"case":"example","curve_samples":32}`),
		modelItem(2, `{"case":"example","curve_samples":64}`),
		modelItem(2, `{"case":"example","curve_samples":128}`),
	},
	kindSweep: {
		{1, request{kindSweep, "/v1/sweep", mcSpec(256, 7, 5)}},
		{1, request{kindSweep, "/v1/sweep", mcSpec(1024, 8, 1)}},
	},
	kindStream: {
		{1, request{kindStream, "/v1/sweep", mcSpec(2048, 21, 5)}},
		{1, request{kindStream, "/v1/sweep", mcSpec(4096, 22, 1)}},
	},
	kindFigure: {
		{1, request{kindFigure, "/v1/figures/example.svg", nil}},
	},
}

// seedScanWorkflows are seed-scan's fixed inline workflows: the scan
// varies curve_samples over them, so every build is a plan-cache read.
var seedScanWorkflows = func() []string {
	out := make([]string, 4)
	for i := range out {
		out[i] = genWorkflow(uint64(i+1), fmt.Sprintf("scan-%d", i))
	}
	return out
}()

// corpusScan is seed-scan's corpus: CV=0 and no file-system traffic or
// payloads, so every scenario is analytic-eligible and a seed change reuses
// the cached scenarios.
const corpusScan = `{"kind":"corpus","machine":"perlmutter-numa","count":30,"seed":%d,"template":{"width":5,"depth":3,"fs":"0","payload":"0"}}`

// corpusCold is cold-explore's corpus template: lognormal work (cv>0) and
// 1 GB edge payloads on the shared file system, so no plan is
// analytic-eligible and every scenario runs the event loop.
const corpusCold = `{"kind":"corpus","machine":"perlmutter","count":%d,"seed":%d,"template":{"width":4,"depth":3,"cv":0.4,"payload":"1 GB"}}`

// failuresSpec is a failures ensemble on lcls-cori. Eight attempts at a 2%
// task failure rate make a permanent failure (0.02^8 per task) a
// non-event, so no generated seed turns into an error.
const failuresSpec = `{"kind":"failures","case":"lcls-cori","trials":64,"seed":%d,"failure":{"task_fail_prob":0.02,"restage_rate":"1 GB/s","retry":{"max_attempts":8,"backoff_seconds":1,"backoff_factor":2}}}`

// The round mixes follow wfload's mixes for the same callers
// (internal/loadgen) where the request kinds overlap; a kind that mix does
// not send is added at a stated share. README.md gives each weight's
// source.
var mixes = map[string]*workload{
	// A dashboard fleet re-requesting a small fixed working set through the
	// gate: after the warm pass every request is a replica cache hit. Model,
	// sweep and figure are hit-heavy's 80:10:10; streams, which hit-heavy
	// does not send, come as often as buffered sweeps.
	"cluster-hit": {
		name: "cluster-hit", gated: true, replicas: 3,
		round: mix(kindModel, 16, kindSweep, 2, kindStream, 2, kindFigure, 2),
		gen: func(slot string, h uint64) request {
			return pick(clusterHitSet[slot], h)
		},
		warmRounds:   80,
		warm:         workingSet(),
		tracedRounds: 40,
	},
	// Parameter-scan clients re-seeding fixed studies against one replica:
	// every response is a fresh cache entry, every construction a plan-cache
	// read. The buffered sweeps are seed-vary's 70:30 corpus to Monte Carlo;
	// streams (20%) and models (30%), which seed-vary does not send, are
	// assumed shares.
	"seed-scan": {
		name: "seed-scan", replicas: 1,
		round: mix(kindModel, 6, "sweep/corpus", 7, "sweep/montecarlo", 3, kindStream, 4),
		gen: func(slot string, h uint64) request {
			s := fresh(h)
			switch slot {
			case kindModel:
				wf := seedScanWorkflows[h%uint64(len(seedScanWorkflows))]
				return request{kindModel, "/v1/model", []byte(fmt.Sprintf(
					`{"machine":"perlmutter","workflow":%s,"curve_samples":%d}`, wf, 16+(h>>8)%240))}
			case "sweep/corpus":
				return request{kindSweep, "/v1/sweep", []byte(fmt.Sprintf(corpusScan, s))}
			case "sweep/montecarlo":
				return request{kindSweep, "/v1/sweep", mcSpec(256, s, 5)}
			default:
				return request{kindStream, "/v1/sweep", mcSpec(4096, s, 1)}
			}
		},
		warmRounds:   40,
		tracedRounds: 15,
	},
	// Exploratory analysis of unseen structure through the gate: generated
	// workflows and event-loop corpora, with caches small enough that both
	// miss and keep evicting. Models and sweeps are miss-heavy's 55:35 (its
	// figure share left out: a fixed figure is always a cache hit); the
	// split of the sweeps over corpus, failures and stream is assumed.
	"cold-explore": {
		name: "cold-explore", gated: true, replicas: 3,
		cacheEntries: 32, planEntries: 64,
		round: mix(kindModel, 11, "sweep/corpus", 3, "sweep/failures", 2, kindStream, 2),
		gen: func(slot string, h uint64) request {
			s := fresh(h)
			switch slot {
			case kindModel:
				wf := genWorkflow(h, fmt.Sprintf("explore-%x", s))
				return request{kindModel, "/v1/model", []byte(fmt.Sprintf(`{"machine":"perlmutter","workflow":%s}`, wf))}
			case "sweep/corpus":
				return request{kindSweep, "/v1/sweep", []byte(fmt.Sprintf(corpusCold, 10, s))}
			case "sweep/failures":
				return request{kindSweep, "/v1/sweep", []byte(fmt.Sprintf(failuresSpec, s))}
			default:
				return request{kindStream, "/v1/sweep", []byte(fmt.Sprintf(corpusCold, 24, s))}
			}
		},
		warmRounds:   15,
		tracedRounds: 5,
	},
}

// workingSet lists every cluster-hit item once, in a fixed order.
func workingSet() []request {
	var out []request
	for _, k := range kinds {
		for _, it := range clusterHitSet[k] {
			out = append(out, it.req)
		}
	}
	return out
}

// genWorkflow renders a generated inline workflow: 2-5 layers of 1-8 tasks
// on Perlmutter's cpu or gpu partition, each task with its own work vector
// and one or two parents in the layer before.
func genWorkflow(h uint64, name string) string {
	rng := rand.New(rand.NewSource(int64(h)))
	part := "cpu"
	if rng.Intn(2) == 1 {
		part = "gpu"
	}
	layers := 2 + rng.Intn(4)
	var (
		b    strings.Builder
		prev []string
		deps [][2]string
	)
	fmt.Fprintf(&b, `{"name":%q,"partition":%q,"tasks":[`, name, part)
	n := 0
	for l := 0; l < layers; l++ {
		width := 1 + rng.Intn(8)
		var cur []string
		for k := 0; k < width; k++ {
			id := fmt.Sprintf("t%d", n)
			if n > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"id":%q,"nodes":%d,"work":{"flops":%d,"mem_bytes":%d,"network_bytes":%d,"fs_bytes":%d`,
				id, 1<<rng.Intn(5), (1+rng.Intn(1000))*1e9, (1+rng.Intn(200))*1e9, rng.Intn(50)*1e9, rng.Intn(500)*1e9)
			if part == "gpu" {
				fmt.Fprintf(&b, `,"pcie_bytes":%d`, (1+rng.Intn(64))*1e9)
			}
			b.WriteString("}}")
			if len(prev) > 0 {
				deps = append(deps, [2]string{prev[k%len(prev)], id})
				if extra := prev[(k+1)%len(prev)]; len(prev) > 1 && rng.Intn(2) == 0 {
					deps = append(deps, [2]string{extra, id})
				}
			}
			cur = append(cur, id)
			n++
		}
		prev = cur
	}
	b.WriteString(`],"deps":[`)
	for i, d := range deps {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `[%q,%q]`, d[0], d[1])
	}
	b.WriteString("]}")
	return b.String()
}
