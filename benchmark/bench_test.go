package main

import (
	"math"
	"regexp"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {1, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty sample must be NaN, not a number that looks measured")
	}
}

func TestSupportedNeedsTenSamplesBeyond(t *testing.T) {
	if supported(999, 0.99) {
		t.Error("999 samples leave fewer than 10 beyond p99")
	}
	if !supported(1000, 0.99) {
		t.Error("1000 samples leave 10 beyond p99")
	}
	if !supported(20, 0.5) {
		t.Error("20 samples leave 10 beyond the median")
	}
}

func TestQuietDecileOfWindows(t *testing.T) {
	// Eleven windows, four of them disturbed: the decile on the quiet side
	// does not move, whichever way "better" points.
	lat := summarize([]float64{10, 50, 12, 11, 13, 40, 10, 12, 45, 60, 11}, false)
	if lat.Value != 10 {
		t.Errorf("latency: value %v, want 10", lat.Value)
	}
	if lat.Q1 != 11 || lat.Median != 12 || lat.Q3 != 42.5 {
		t.Errorf("quartiles = %v/%v/%v, want 11/12/42.5", lat.Q1, lat.Median, lat.Q3)
	}
	if want := (42.5 - 11) / 12; math.Abs(lat.Spread-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", lat.Spread, want)
	}
	tput := summarize([]float64{100, 20, 98, 99, 97, 30, 100, 98, 25, 15, 99}, true)
	if tput.Value != 100 {
		t.Errorf("throughput: value %v, want 100", tput.Value)
	}
	// Between ranks the quantile interpolates.
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("quantile of an even count = %v, want 2.5", got)
	}
	if got := quantile([]float64{0, 10}, 0.25); got != 2.5 {
		t.Errorf("quantile(0.25) of {0,10} = %v, want 2.5", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty sample must be NaN")
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	summarize(in, false)
	if in[0] != 3 {
		t.Error("median or summarize reordered its input")
	}
}

func TestWindowOfSplitsEvenly(t *testing.T) {
	var count [windows]int
	n := 5 * windows
	for i := 0; i < n; i++ {
		count[windowOf(i, n)]++
	}
	for w, c := range count {
		if c != 5 {
			t.Errorf("window %d holds %d of %d ops, want 5", w, c, n)
		}
	}
	if windowOf(0, windows) != 0 || windowOf(windows-1, windows) != windows-1 {
		t.Error("first and last op must land in the first and last window")
	}
}

func TestDueTimeDoesNotDrift(t *testing.T) {
	if got := dueTime(0, 200); got != 0 {
		t.Errorf("op 0 due at %v", got)
	}
	if got := dueTime(1, 200); got != 5*time.Millisecond {
		t.Errorf("op 1 at 200/s due at %v, want 5ms", got)
	}
	// 3 ops per second: 1/3 s is not representable; the millionth op must
	// still be due within a microsecond of its exact time.
	got := dueTime(3_000_000, 3)
	if d := got - 1_000_000*time.Second; d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("op 3e6 at 3/s due at %v", got)
	}
}

func TestOpCountFillsWindows(t *testing.T) {
	for _, w := range workloads {
		mult := 2
		if w.Kind == kindIngest {
			mult = 1
		}
		for _, sc := range []scale{scaleFull, scaleSmoke} {
			n := w.opCount(10, sc, mult)
			if n <= 0 || n%(mult*windows) != 0 {
				t.Errorf("%s at %s: %d ops do not fill %d windows with whole units of %d", w.Name, sc.Name, n, windows, mult)
			}
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer()
	parent := tr.addSpan("parent", 0, 1, 0, 100*time.Microsecond, nil)
	child := tr.addSpan("child", parent, 1, 0, 60*time.Microsecond, nil)
	tr.addSpan("grandchild", child, 1, 0, 10*time.Microsecond, nil)
	tr.addSpan("child", parent, 1, 0, 15*time.Microsecond, nil)
	self := tr.selfTimes()
	if got := self["parent"]; len(got) != 1 || got[0] != 25 {
		t.Errorf("parent self time = %v, want [25]", got)
	}
	if got := self["child"]; len(got) != 2 || got[0] != 50 || got[1] != 15 {
		t.Errorf("child self times = %v, want [50 15]", got)
	}
}

func TestIngestPlanKeepsPrimerLive(t *testing.T) {
	ds := scaleSmoke.data(uni2)
	db := genDataset(ds, 1)
	p := planIngest(ds, db, primerPairs, 10, batchSize, firstNewID, 1)
	live, deleted := p.liveAndDeleted()
	if len(live) != primerPairs*batchSize || len(deleted) != 10*batchSize {
		t.Fatalf("live %d, deleted %d", len(live), len(deleted))
	}
	// Every delete batch targets objects inserted strictly earlier.
	inserted := map[uint32]bool{}
	for _, b := range p.primer {
		for _, o := range b {
			inserted[uint32(o.ID)] = true
		}
	}
	for i := range p.inserts {
		for _, o := range p.inserts[i] {
			inserted[uint32(o.ID)] = true
		}
		for _, o := range p.deletes[i] {
			if !inserted[uint32(o.ID)] {
				t.Fatalf("pair %d deletes %d before it was inserted", i, o.ID)
			}
			delete(inserted, uint32(o.ID))
		}
	}
	if len(inserted) != len(live) {
		t.Errorf("%d inserted objects live at the end, plan says %d", len(inserted), len(live))
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	spec.EndToEnd = []specMetric{
		{Name: "lat", Unit: "u", Better: "lower", Bound: 0.10},
		{Name: "tput", Unit: "u", Better: "higher", Bound: 0.10},
		{Name: "noisy", Unit: "u", Better: "lower", Bound: 0.10},
	}
	run := func(lat, tput float64) *report {
		wide := summarize([]float64{80, 100, 120}, false)
		return &report{Runs: []runResult{{Workload: "w", Metrics: []metric{
			{Name: "lat", Value: lat}, {Name: "tput", Value: tput}, {Name: "noisy", Value: 100, Win: &wide},
		}}}}
	}
	rows, err := compareReports(spec, run(100, 100), run(115, 95))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"lat": verdictWorse, "tput": verdictOK, "noisy": verdictUnresolved}
	for _, r := range rows {
		if r.Verdict != want[r.Metric] {
			t.Errorf("%s: verdict %s, want %s (delta %+.3f)", r.Metric, r.Verdict, want[r.Metric], r.Delta)
		}
	}
	// A throughput drop beyond the bound is worse; a latency drop is not.
	rows, err = compareReports(spec, run(100, 100), run(80, 85))
	if err != nil {
		t.Fatal(err)
	}
	want = map[string]string{"lat": verdictOK, "tput": verdictWorse, "noisy": verdictUnresolved}
	for _, r := range rows {
		if r.Verdict != want[r.Metric] {
			t.Errorf("%s: verdict %s, want %s (delta %+.3f)", r.Metric, r.Verdict, want[r.Metric], r.Delta)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestHarnessSmoke runs the whole harness — every workload, untraced and
// traced, against a real pvserve child — at smoke scale, and checks that it
// emits exactly the metrics BENCHMARK.json names.
func TestHarnessSmoke(t *testing.T) {
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	spec, err := loadSpec(e.root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	if err := e.buildPvserve(); err != nil {
		t.Fatal(err)
	}
	units := func(ms []specMetric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	endToEnd, perLayer := units(spec.EndToEnd), units(spec.PerLayer)
	for i, named := range spec.Workloads {
		w, err := findWorkload(named.Name)
		if err != nil {
			t.Fatalf("BENCHMARK.json workload %d: %v", i, err)
		}
		for _, traced := range []bool{false, true} {
			res, err := runOne(e, runConfig{w: w, seed: 1, seconds: 10, sc: scaleSmoke}, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.Name, traced, res.Attempted, res.Failed)
			}
			expect := endToEnd
			if traced {
				expect = perLayer
			}
			seen := map[string]int{}
			for _, m := range res.Metrics {
				seen[m.Name]++
				if !metricName.MatchString(m.Name) {
					t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", w.Name, m.Name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", w.Name, m.Name, m.Value)
				}
				unit, ok := expect[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: emits %s, which BENCHMARK.json does not list", w.Name, traced, m.Name)
				} else if m.Unit == "" || m.Unit != unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, m.Unit, unit)
				}
			}
			for name := range expect {
				if seen[name] != 1 {
					t.Errorf("%s traced=%v: %s emitted %d times, want once", w.Name, traced, name, seen[name])
				}
			}
		}
	}
}
