package main

import (
	"context"
	"fmt"
	"testing"

	"wroofline/internal/study"
	"wroofline/internal/sweep"
)

// TestSimLayerMatchesStudy pins the traced run's replay below study to
// study itself: for one spec of each ensemble kind the replayed makespans
// must summarize to study's distribution row. If study changes how it
// seeds, batches or builds an ensemble, the replay no longer measures the
// program's work and this test fails.
func TestSimLayerMatchesStudy(t *testing.T) {
	cases := []struct {
		name  string
		spec  []byte
		table int // the table of study's report holding the distribution row
	}{
		{"montecarlo", mcSpec(256, 5, 5), 0},
		{"failures", []byte(fmt.Sprintf(failuresSpec, 9)), 0},
		{"corpus event loop", []byte(fmt.Sprintf(corpusCold, 10, 3)), 1},
		{"corpus analytic", []byte(fmt.Sprintf(corpusScan, 4)), 1},
	}
	ctx := context.Background()
	for _, c := range cases {
		spec, err := study.ParseSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		tables, err := study.RunCached(ctx, spec, nil)
		if err != nil {
			t.Fatalf("%s: study: %v", c.name, err)
		}
		var sm simLayer
		makespans, err := sm.ensemble(ctx, spec, nil)
		if err != nil {
			t.Fatalf("%s: replay: %v", c.name, err)
		}
		got, err := sweep.Summarize(makespans)
		if err != nil {
			t.Fatal(err)
		}
		row := tables[c.table].Rows()[0]
		if c.name == "failures" {
			row = append(row[:1:1], row[2:]...) // drop the baseline column
		}
		want := make([]float64, 7) // n, min, p50, p90, p99, max, mean
		for i := range want {
			if want[i], err = num(row[i]); err != nil {
				t.Fatalf("%s: cell %q: %v", c.name, row[i], err)
			}
		}
		have := []float64{float64(got.N), got.Min, got.P50, got.P90, got.P99, got.Max, got.Mean}
		for i := range want {
			if !le(have[i], want[i]) || !le(want[i], have[i]) {
				t.Errorf("%s: replay gives %v, study's row reads %v", c.name, have, want)
				break
			}
		}
	}
}
