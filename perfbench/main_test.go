package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
	"time"
)

// TestStreamDeterminism: one seed gives one request stream, another
// seed a different one.
func TestStreamDeterminism(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			hash := func(seed int64) string {
				w := spec.build(seed, testScale)
				if err := w.inputs(); err != nil {
					t.Fatal(err)
				}
				return w.streamHash(50)
			}
			a, b, c := hash(1), hash(1), hash(2)
			if a != b {
				t.Errorf("seed 1 gave two streams: %s, %s", a, b)
			}
			if a == c {
				t.Errorf("seeds 1 and 2 gave the same stream %s", a)
			}
		})
	}
}

// TestCheckSetDeterminism runs each workload at test scale: the check
// set's placement_cost and solved_share repeat exactly for one seed and
// differ for another, and a short window's answers all pass their
// checks.
func TestCheckSetDeterminism(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			run := func(seed int64) checkSet {
				w := spec.build(seed, testScale)
				defer w.close()
				if err := w.setup(); err != nil {
					t.Fatal(err)
				}
				win := runWindow(w, spec.clients, 300*time.Millisecond, nil)
				if win.failed > 0 {
					t.Fatalf("%d of %d requests failed, first: %v", win.failed, win.attempted, win.firstErr)
				}
				if len(win.lat) == 0 {
					t.Fatal("no request completed")
				}
				if err := w.verify(); err != nil {
					t.Fatal(err)
				}
				return w.checkSet()
			}
			a, b, c := run(1), run(1), run(2)
			if a != b {
				t.Errorf("seed 1 gave two check sets: %+v, %+v", a, b)
			}
			if a.cost == c.cost {
				t.Errorf("seeds 1 and 2 gave the same placement_cost %v", a.cost)
			}
			if a.answers == 0 || a.solved == 0 {
				t.Errorf("empty check set %+v", a)
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON: BENCHMARK.json lists exactly the
// workloads and the per-layer metrics of this program; a run prints
// exactly the end-to-end metrics it lists and a traced run exactly its
// per-layer metrics, each with the listed unit, on every workload; and
// every per-layer metric is measured on at least one workload.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bench struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var listed, names []string
	for _, e := range bench.Workloads {
		listed = append(listed, e.Name)
	}
	var crossed layerSet
	for _, spec := range workloads {
		names = append(names, spec.name)
		crossed |= spec.crosses
	}
	if fmt.Sprint(listed) != fmt.Sprint(names) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %v", listed, names)
	}
	var table []entry
	for _, pm := range perLayer {
		table = append(table, entry{pm.name, pm.unit})
		if pm.layer != 0 && pm.layer&crossed == 0 {
			t.Errorf("per-layer metric %s is measured on no workload", pm.name)
		}
	}
	if fmt.Sprint(table) != fmt.Sprint(bench.PerLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, the program lists %v", bench.PerLayer, table)
	}
	for _, spec := range workloads {
		for _, traced := range []bool{false, true} {
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			t.Run(fmt.Sprintf("%s/traced=%v", spec.name, traced), func(t *testing.T) {
				out, err := execute(spec, 1, testScale, 400*time.Millisecond, traced, &report{out: io.Discard, seed: "1"})
				if err != nil {
					t.Fatal(err)
				}
				if !out.correct {
					t.Fatalf("%d of %d answers failed", out.failed, out.attempted)
				}
				got := map[string]string{}
				for _, m := range out.metrics {
					got[m.name] = m.unit
				}
				if len(got) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(got), len(want))
				}
				for _, e := range want {
					if unit, ok := got[e.Name]; !ok || unit != e.Unit {
						t.Errorf("metric %s: got unit %q (present %v), want %q", e.Name, unit, ok, e.Unit)
					}
				}
			})
		}
	}
}
