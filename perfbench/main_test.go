package main

import (
	"context"
	"io"
	"strings"
	"testing"
)

func loadTestSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// tiny is a named workload shrunk so that a run takes well under a
// second; its layers, phases and metric names are the full workload's.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.join.build, w.join.probe = 1<<12, 1<<13
	w.service = serviceShape{hot: 1 << 10, probe: 64, scan: 1 << 12, scanEvery: 64, antiEvery: 16}
	return w
}

func runTiny(t *testing.T, cfg runConfig) *runOutput {
	t.Helper()
	cfg.seed, cfg.seconds, cfg.setupReps = 7, 0.2, 2
	out, err := run(context.Background(), cfg, loadTestSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Every workload in both modes emits exactly the metrics BENCHMARK.json
// declares, every output is correct, and the leak guard passes.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	sp := loadTestSpec(t)
	for _, w := range workloads() {
		if !sp.hasWorkload(w.name) {
			t.Errorf("workload %s is not declared in BENCHMARK.json", w.name)
		}
		for _, traced := range []bool{false, true} {
			out := runTiny(t, runConfig{w: tiny(t, w.name), traced: traced})
			if !out.res.Correct || out.res.Failed != 0 || out.res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.name, traced,
					out.res.Correct, out.res.Attempted, out.res.Failed, strings.Join(out.report, "\n"))
			}
			if p := sp.check(out.res.Metrics, traced); len(p) != 0 {
				t.Errorf("%s traced=%v: %v", w.name, traced, p)
			}
		}
	}
}

func TestInjectedWrongChecksumFailsTheRun(t *testing.T) {
	out := runTiny(t, runConfig{w: tiny(t, "join-inner"), corrupt: true})
	if out.res.Correct || out.res.Failed != 1 {
		t.Fatalf("correct=%v failed=%d, want a failed run with one failed op", out.res.Correct, out.res.Failed)
	}
	if !strings.Contains(strings.Join(out.report, "\n"), "FAIL NOP: got") {
		t.Errorf("report does not name the wrong join:\n%s", strings.Join(out.report, "\n"))
	}
}

func TestSpecNamesAndUnits(t *testing.T) {
	sp := loadTestSpec(t)
	for traced, list := range map[bool][]specMetric{false: sp.EndToEnd, true: sp.PerLayer} {
		m := metrics{}
		for _, s := range list {
			m.set(s.Name, 1, s.Unit)
		}
		if p := sp.check(m, traced); len(p) != 0 {
			t.Errorf("declared metrics do not pass their own check: %v", p)
		}
	}
}

// A phase the program renames becomes an undeclared metric, and the
// declared one goes missing: both fail the run.
func TestRenamedPhaseFailsTheCheck(t *testing.T) {
	sp := loadTestSpec(t)
	m := metrics{}
	for _, s := range sp.PerLayer {
		m.set(s.Name, 1, s.Unit)
	}
	delete(m, "exec.phase_ms.pra."+phaseKey("partition(S)/scatter"))
	m.set("exec.phase_ms.pra."+phaseKey("partition(S)/scatter-swwcb"), 1, "ms")
	p := sp.check(m, true)
	if len(p) != 2 || !strings.Contains(p[0], "partition_S.scatter was not measured") ||
		!strings.Contains(p[1], "partition_S.scatter-swwcb is not declared") {
		t.Errorf("problems = %q", p)
	}
}

func TestPhaseKey(t *testing.T) {
	for label, want := range map[string]string{
		"partition(S)/scatter": "partition_S.scatter",
		"partition(R)/chunked": "partition_R.chunked",
		"join":                 "join",
		"bulk load #2":         "bulk_load__2",
	} {
		if got := phaseKey(label); got != want {
			t.Errorf("phaseKey(%q) = %q, want %q", label, got, want)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	p50, p99, ok := tail(xs)
	if p50 != 500 || p99 != 990 || !ok {
		t.Errorf("tail(1..1000) = %v, %v, %v; want 500, 990, true", p50, p99, ok)
	}
	if _, _, ok := tail(xs[:999]); ok {
		t.Error("a p99 of 999 samples has 9 beyond it and must not be reported")
	}
}

func TestServiceMix(t *testing.T) {
	var n [numOps]int
	for i := 0; i < 64; i++ {
		n[serviceMix.opAt(i)]++
	}
	if n != [numOps]int{60, 1, 3} {
		t.Errorf("64 queries are %v probes/scans/antis, want 60/1/3", n)
	}
}

func TestUnrunnableExitsWithoutResult(t *testing.T) {
	var out strings.Builder
	if code := mainErr(&out, "join-inner", 1, 1, false, "no-such-spec.json", t.TempDir()); code != 2 || out.Len() != 0 {
		t.Errorf("missing spec: exit %d, output %q", code, out.String())
	}
	if code := mainErr(io.Discard, "no-such-workload", 1, 1, false, "../BENCHMARK.json", t.TempDir()); code != 2 {
		t.Errorf("unknown workload: exit %d", code)
	}
}
