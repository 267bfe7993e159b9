package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runToy runs one workload at toy size and returns the parsed last line
// of standard output and the record written for it.
func runToy(t *testing.T, out, workload string, seed int64, trace int) (result, record) {
	t.Helper()
	cfg := config{workload: workload, seed: seed, seconds: 0, trace: trace, out: out, root: "..", size: toySize()}
	var stdout, stderr bytes.Buffer
	if _, err := run(cfg, &stdout, &stderr); err != nil {
		t.Fatalf("%s trace=%d: %v\n%s", workload, trace, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, trace)))
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
		t.Fatalf("%s trace=%d: %+v, errors %v\n%s", workload, trace, res, rec.Errors, stderr.String())
	}
	return res, rec
}

func checkMetrics(t *testing.T, workload string, got map[string]metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", workload, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", workload, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: metric %s unit %q, want %q", workload, m.Name, g.Unit, m.Unit)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload at toy size, untraced
// and traced, and checks the emitted metrics, their units and the traced
// run's span tree.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	out := t.TempDir()
	for _, w := range spec.Workloads {
		res, _ := runToy(t, out, w.Name, 3, 0)
		checkMetrics(t, w.Name, res.Metrics, spec.EndToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
			}
		}
		res, rec := runToy(t, out, w.Name, 3, 1)
		checkMetrics(t, w.Name, res.Metrics, spec.PerLayer)
		if len(rec.Spans) == 0 {
			t.Fatalf("%s: traced run recorded no spans", w.Name)
		}
		if err := checkSpans(rec.Spans); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if rec.Provenance.SourceSHA256 == "" || rec.Provenance.GOMAXPROCS == 0 || rec.Provenance.Workload != w.Name {
			t.Errorf("%s: incomplete provenance %+v", w.Name, rec.Provenance)
		}
	}
}

// TestDigestMismatchFails plants a wrong digest for the seed's stored
// output; the run must count a failed operation and not report correct.
func TestDigestMismatchFails(t *testing.T) {
	out := t.TempDir()
	const workload, seed = "flood-mitigated", 5
	cfg := config{workload: workload, seed: seed, seconds: 0, out: out, root: "..", size: toySize()}
	if err := newDigestStore(cfg).checkLocal(workload, seed, "not-the-real-digest"); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	res, err := run(cfg, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Correct {
		t.Fatalf("planted digest mismatch: %+v, want exactly one failed operation", res)
	}
}

// TestReferenceDigestMismatchFails gives the run a reference digest that
// its output cannot match; the run must fail even though the local store
// is empty.
func TestReferenceDigestMismatchFails(t *testing.T) {
	const workload, seed = "fleet-100k", 5
	cfg := config{workload: workload, seed: seed, seconds: 0, out: t.TempDir(), root: "..", size: toySize(),
		ref: referenceDigests{workload: {"5": "not-the-real-digest"}}}
	var stdout, stderr bytes.Buffer
	res, err := run(cfg, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Correct {
		t.Fatalf("planted reference mismatch: %+v, want exactly one failed operation", res)
	}
}

// TestReferenceCoversDefaultRun checks that the committed reference
// digests parse and cover the seeds a default run (seed 42) iterates.
func TestReferenceCoversDefaultRun(t *testing.T) {
	var ref referenceDigests
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"paper-pipeline", "fleet-100k", "flood-mitigated"} {
		for seed := 42; seed < 42+minIterations; seed++ {
			if len(ref[w][fmt.Sprint(seed)]) != 64 {
				t.Errorf("%s: no reference digest for seed %d", w, seed)
			}
		}
	}
}

// TestSpanSelfTimes checks self time and nesting on a hand-built tree with
// an aggregate span.
func TestSpanSelfTimes(t *testing.T) {
	tr := newTracer()
	_, _ = tr.span("root", func() error {
		_, _ = tr.spanN("child", 10, func() error {
			for i := 0; i < 1000; i++ {
				_ = make([]byte, 64)
			}
			return nil
		})
		tr.aggregate("calls", 3, 1)
		return nil
	})
	spans := tr.finish()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	root := spans[0]
	if want := root.BusyNS - spans[1].BusyNS - 1; root.SelfNS != want {
		t.Fatalf("root self %d ns, want %d", root.SelfNS, want)
	}
	bad := append([]span(nil), spans...)
	bad[1].EndNS = bad[0].EndNS + 1
	if checkSpans(bad) == nil {
		t.Fatal("a child ending after its parent passed the check")
	}
}
