// Command perfbench is the repository's benchmark. It runs one named
// workload against the join library and the join service, checks every
// output against the reference join, and prints every metric by name
// with its unit. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
// Build and run it from the root of the repository with
//
//	bash perfbench/run.sh --workload join-inner --seed 1 --seconds 36 --trace 0
//
// --trace 0 measures the end-to-end metrics with all tracing off.
// --trace 1 is a separate run for the per-layer metrics: it also runs
// each join with the program's tracer on, times the benchmark's own
// calls into the hashtable and radix layers, and writes the spans it
// recorded to a trace file under --out.
//
// Exit status: 0 when every output was correct, 1 when the run measured
// but something failed (the JSON line says correct: false), 2 when it
// could not run at all (no JSON line).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"mmjoin/internal/offheap"
)

// setupReps is how often an untraced run sets its workload up; setup_s
// is the median.
const setupReps = 3

// slices is how many times a run alternates between its join part and
// its service part.
const slices = 5

// joinShare is the share of the measured time given to the join part.
// One rep of the four algorithms takes over a second, so a 36 s run
// still gives the joins 10 to 15 reps to take medians over. The service
// gets the larger share: its p99s follow neighbour load on a shared host,
// and a longer window averages more of that out.
const joinShare = 0.4

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run")
		seed         = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Float64("seconds", 36, "measured time of the run")
		traced       = flag.Int("trace", 0, "1: the traced run for the per-layer metrics")
		specPath     = flag.String("spec", "BENCHMARK.json", "benchmark spec that declares the workloads and metrics")
		outDir       = flag.String("out", ".bench_build", "directory for the span file of a traced run")
	)
	flag.Parse()
	os.Exit(mainErr(os.Stdout, *workloadName, *seed, *seconds, *traced == 1, *specPath, *outDir))
}

func mainErr(stdout io.Writer, name string, seed uint64, seconds float64, traced bool, specPath, outDir string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		return fail(err)
	}
	if !sp.hasWorkload(name) {
		return fail(fmt.Errorf("workload %q is not declared in %s", name, specPath))
	}
	w, err := findWorkload(name)
	if err != nil {
		return fail(err)
	}
	if seconds <= 0 {
		return fail(fmt.Errorf("--seconds must be positive, got %g", seconds))
	}
	cfg := runConfig{w: w, seed: seed, seconds: seconds, traced: traced, setupReps: setupReps}
	if traced {
		cfg.setupReps = 1
	}
	out, err := run(context.Background(), cfg, sp)
	if err != nil {
		return fail(err)
	}
	if traced {
		path := filepath.Join(outDir, fmt.Sprintf("perfbench-trace-%s-seed%d.json", name, seed))
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fail(err)
		}
		if err := out.rec.write(path, out.host, out.res.Metrics); err != nil {
			return fail(err)
		}
		out.report = append(out.report, "spans written to "+path)
	}
	for _, line := range out.report {
		fmt.Fprintln(stdout, "#", line)
	}
	for _, k := range sortedKeys(out.res.Metrics) {
		fmt.Fprintf(stdout, "# %-44s %14.4f %s\n", k, out.res.Metrics[k].Value, out.res.Metrics[k].Unit)
	}
	line, err := json.Marshal(out.res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if !out.res.Correct {
		return 1
	}
	return 0
}

type runConfig struct {
	w         workload
	seed      uint64
	seconds   float64
	traced    bool
	setupReps int
	// corrupt flips the checksum of the first measured join; the
	// benchmark's own test uses it to show that the run then fails.
	corrupt bool
}

type runOutput struct {
	res    result
	host   host
	report []string
	rec    *recorder
}

// run sets the workload up, measures its join part and its service
// part, checks that nothing leaked, and assembles the metrics of the
// mode. An error means the workload could not run at all.
func run(ctx context.Context, cfg runConfig, sp *spec) (*runOutput, error) {
	out := &runOutput{host: readHost(), rec: newRecorder(cfg.traced)}
	t := &tally{}
	threads := parallelism()
	baseGoroutines := runtime.NumGoroutine()
	baseOffHeap := offheap.Outstanding()
	root := out.rec.begin("workload "+cfg.w.name, 0, 0)

	var jp *joinPart
	var svc *servicePart
	var setupTimes []float64
	for rep := 0; rep < cfg.setupReps; rep++ {
		if svc != nil {
			if err := svc.srv.Close(); err != nil {
				t.fail("close server of set-up rep %d: %v", rep-1, err)
			}
		}
		jp, svc = nil, nil
		runtime.GC()
		span := out.rec.begin("setup", root, 0)
		start := time.Now()
		var err error
		if jp, err = setupJoin(ctx, cfg.w.join, threads, cfg.seed); err != nil {
			return nil, err
		}
		if svc, err = setupService(ctx, cfg.w.service, cfg.seed); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		out.rec.end(span)
	}
	// Start the measured part from a settled heap, so that the set-up's
	// garbage does not count toward the peak heap.
	runtime.GC()
	debug.FreeOSMemory()

	samp := startSampler()
	gcBefore := gcCPUSeconds()
	// The two parts alternate in slices, so that each samples the whole
	// run: on a shared host memory bandwidth drifts over seconds.
	total := time.Duration(cfg.seconds * float64(time.Second))
	joinSlice := time.Duration(float64(total) * joinShare / slices)
	serviceSlice := total/slices - joinSlice
	jr, sr := newJoinRuns(), &serviceRuns{before: svc.srv.Metrics()}
	joinSpan, serviceSpan := out.rec.begin("join", root, 0), out.rec.begin("service", root, 0)
	for i := 0; i < slices; i++ {
		jp.measure(ctx, jr, joinSlice, cfg.traced, out.rec, joinSpan, t, cfg.corrupt && i == 0)
		// The join part's garbage is not the service's to collect.
		runtime.GC()
		svc.measure(ctx, sr, serviceSlice, threads, out.rec, serviceSpan, t)
	}
	// Top the service part up until its percentiles have their samples.
	for hardStop := time.Now().Add(total); !sr.enough() && time.Now().Before(hardStop); {
		svc.measure(ctx, sr, serviceSlice, threads, out.rec, serviceSpan, t)
	}
	sr.after = svc.srv.Metrics()
	out.rec.end(joinSpan)
	out.rec.end(serviceSpan)
	var k *kernels
	if cfg.traced {
		span := out.rec.begin("kernels", root, 0)
		k = measureKernels(ctx, jp, jr.bitsOf("CPRL"), jr.bitsOf("PRA"), cfg.seed, out.rec, span, t)
		out.rec.end(span)
	}
	heap := samp.finish()
	gcCPU := gcCPUSeconds() - gcBefore

	// Leak guard: the server closes clean, no off-heap region is left,
	// and every goroutine the run started has ended.
	if err := svc.srv.Close(); err != nil {
		t.fail("close server: %v", err)
	}
	outstanding := offheap.OutstandingBytes()
	if n := offheap.Outstanding() - baseOffHeap; n != 0 {
		t.fail("%d off-heap regions outstanding after the workload", n)
	}
	if n := settleGoroutines(baseGoroutines); n > baseGoroutines {
		t.fail("%d goroutines running after the workload, %d before", n, baseGoroutines)
	}
	out.rec.end(root)

	m := metrics{}
	if !cfg.traced {
		jr.endToEnd(m, cfg.w.join)
		sr.endToEnd(m, t)
		m.set("setup_s", median(setupTimes), "s")
		m.set("peak_rss_mib", float64(peakResidentBytes())/(1<<20), "MiB")
	} else {
		phaseSums := jr.perLayer(m)
		k.perLayer(m)
		for i, name := range algorithms {
			m.set("join.closure."+strings.ToLower(name), k.predictMs(name, threads)/phaseSums[i], "ratio")
		}
		m.set("trace.overhead_frac", jr.overhead(), "ratio")
		sr.perLayer(m)
		m.set("runtime.gc_cpu_s", gcCPU, "s")
		m.set("runtime.heap_peak_mib", float64(heap)/(1<<20), "MiB")
		m.set("offheap.outstanding_mib", float64(outstanding)/(1<<20), "MiB")
		m.set("bench.samples.join_reps", float64(jr.reps), "count")
		m.set("fail_frac", float64(t.failed)/float64(max(t.attempted, 1)), "ratio")
	}
	problems := sp.check(m, cfg.traced)
	out.res = result{
		Correct:   t.failed == 0 && len(problems) == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   m,
	}
	sort.Float64s(setupTimes)
	out.report = append(out.report, fmt.Sprintf("set-up reps: %d, min %.3f s, median %.3f s, max %.3f s",
		len(setupTimes), setupTimes[0], median(setupTimes), setupTimes[len(setupTimes)-1]))
	hostLine, _ := json.Marshal(out.host)
	out.report = append(out.report,
		"host "+string(hostLine),
		describe(cfg, out.host, threads),
		fmt.Sprintf("samples: %d join reps of 4 algorithms; %d probes, %d scans, %d anti joins in %.2fs",
			jr.reps, sr.counts[opProbe], sr.counts[opScan], sr.counts[opAnti], sr.window.Seconds()))
	for i, name := range algorithms {
		if w := append([]float64(nil), jr.wall[i]...); len(w) > 0 {
			sort.Float64s(w)
			out.report = append(out.report, fmt.Sprintf("%s untraced calls: %d, min %.2f ms, median %.2f ms, max %.2f ms", name, len(w), w[0], median(w), w[len(w)-1]))
		}
	}
	for _, p := range append(t.problems, problems...) {
		out.report = append(out.report, "FAIL "+p)
	}
	return out, nil
}

// settleGoroutines waits up to a second for the goroutine count to fall
// back to base (exiting goroutines need a moment to be reaped) and
// returns the last count.
func settleGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// describe states the workload's sizes relative to this host's caches.
func describe(cfg runConfig, h host, threads int) string {
	rel := func(tuples int) string {
		b := int64(tuples) * 8
		s := fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
		if h.L2Bytes > 0 && h.L3Bytes > 0 {
			s += fmt.Sprintf(" = %.2fx L2, %.2fx L3", float64(b)/float64(h.L2Bytes), float64(b)/float64(h.L3Bytes))
		}
		return s
	}
	j, sv := cfg.w.join, cfg.w.service
	return fmt.Sprintf("workload %s seed %d, %d threads/clients: join %v, R %d tuples (%s), S %d tuples (%s), null share %g; "+
		"service: hot %d tuples (%s), probes of %d, scans of %d every %d, anti every %d",
		cfg.w.name, cfg.seed, threads, j.kind, j.build, rel(j.build), j.probe, rel(j.probe), j.nullFrac,
		sv.hot, rel(sv.hot), sv.probe, sv.scan, sv.scanEvery, sv.antiEvery)
}
