package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"mmjoin/internal/datagen"
	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/trace"
)

// algorithms are the joins of the join part, run in this order in every
// rep: the two no-partitioning joins and the two radix joins.
var algorithms = []string{"NOP", "CHTJ", "CPRL", "PRA"}

// joinPart is a workload's generated join input and its expected output.
type joinPart struct {
	shape   joinShape
	threads int
	rel     *datagen.Workload
	want    expect
	algs    []join.Algorithm
}

// setupJoin generates R and S, takes the expected output from the
// reference join, and warms each algorithm up with one checked call.
func setupJoin(ctx context.Context, shape joinShape, threads int, seed uint64) (*joinPart, error) {
	w, err := datagen.Generate(datagen.Config{BuildSize: shape.build, ProbeSize: shape.probe, NullFrac: shape.nullFrac, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("generate join relations: %w", err)
	}
	jp := &joinPart{shape: shape, threads: threads, rel: w}
	ref, err := join.Reference{}.RunContext(ctx, w.Build, w.Probe, jp.options(nil))
	if err != nil {
		return nil, fmt.Errorf("reference join: %w", err)
	}
	jp.want = expectOf(ref)
	for _, name := range algorithms {
		alg, err := join.New(name)
		if err != nil {
			return nil, err
		}
		res, err := alg.RunContext(ctx, w.Build, w.Probe, jp.options(nil))
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", name, err)
		}
		if expectOf(res) != jp.want {
			return nil, fmt.Errorf("warm-up %s: %d matches, reference join has %d", name, res.Matches, jp.want.matches)
		}
		jp.algs = append(jp.algs, alg)
	}
	return jp, nil
}

// options are the join options of every call: default options but for
// the thread count, the workload's join kind, and the tracer.
func (jp *joinPart) options(tr *trace.Tracer) *join.Options {
	return &join.Options{Threads: jp.threads, Kind: jp.shape.kind, NullableKeys: jp.shape.nullFrac > 0, Tracer: tr}
}

// joinRuns is what the join part measured, indexed like algorithms.
type joinRuns struct {
	reps   int
	wall   [][]float64 // caller wall of untraced calls, ms
	traced [][]float64 // caller wall of traced calls, ms
	stats  [][]*exec.Stats
	bits   []uint
}

func newJoinRuns() *joinRuns {
	n := len(algorithms)
	return &joinRuns{wall: make([][]float64, n), traced: make([][]float64, n), stats: make([][]*exec.Stats, n), bits: make([]uint, n)}
}

// measure adds reps of the four algorithms to r: at least one, and more
// until d has passed. Every output is checked. In a traced run each
// algorithm runs twice per rep, once with the program's tracer on, in
// alternating order, so the two can be compared.
func (jp *joinPart) measure(ctx context.Context, r *joinRuns, d time.Duration, traced bool, rec *recorder, parent int, t *tally, corrupt bool) {
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		// Every rep starts from a collected heap, so that the collector's
		// pacing, and with it the resident peak, repeats from rep to rep
		// instead of depending on where the last rep's cycles fell.
		runtime.GC()
		rep := rec.begin("join.rep", parent, 0)
		for i, alg := range jp.algs {
			for pass := 0; pass < 2; pass++ {
				withTracer := pass == 1
				if r.reps%2 == 1 {
					withTracer = !withTracer
				}
				if withTracer && !traced {
					continue
				}
				var tr *trace.Tracer
				name := "join." + strings.ToLower(alg.Name())
				if withTracer {
					tr = trace.New()
					name += ".traced"
				}
				sp := rec.begin(name, rep, 0)
				start := time.Now()
				res, err := alg.RunContext(ctx, jp.rel.Build, jp.rel.Probe, jp.options(tr))
				wall := time.Since(start)
				rec.end(sp)
				if !t.verify(alg.Name(), res, err, jp.want, corrupt) {
					corrupt = false
					continue
				}
				if withTracer {
					r.traced[i] = append(r.traced[i], ms(wall))
					r.stats[i] = append(r.stats[i], res.Exec)
				} else {
					r.wall[i] = append(r.wall[i], ms(wall))
				}
				r.bits[i] = res.Bits
			}
		}
		rec.end(rep)
		r.reps++
	}
}

// bitsOf is the radix bit count the named algorithm chose.
func (r *joinRuns) bitsOf(name string) uint {
	for i, a := range algorithms {
		if a == name {
			return r.bits[i]
		}
	}
	panic("no algorithm " + name)
}

// endToEnd sets the join part's end-to-end metrics.
func (r *joinRuns) endToEnd(m metrics, shape joinShape) {
	sum := 0.0
	for i, name := range algorithms {
		v := median(r.wall[i])
		m.set(strings.ToLower(name)+"_ms", v, "ms")
		sum += v
	}
	// The paper's throughput: input tuples over run time, here over the
	// four algorithms together.
	tuples := float64(len(algorithms)) * float64(shape.build+shape.probe)
	m.set("join_mtps", tuples/(sum/1e3)/1e6, "Mtuples/s")
}

// perLayer sets the exec and join-driver metrics of the traced calls and
// returns each algorithm's median Σ phase walls in ms, the base of its
// closure.
func (r *joinRuns) perLayer(m metrics) []float64 {
	phaseSums := make([]float64, len(algorithms))
	for i, name := range algorithms {
		algo := strings.ToLower(name)
		phases := map[string][]float64{}
		var sums, residuals, occupancy, imbalance []float64
		for rep, st := range r.stats[i] {
			sum := time.Duration(0)
			var longest *exec.PhaseStat
			for p := range st.Phases {
				ph := &st.Phases[p]
				key := phaseKey(ph.Name)
				phases[key] = append(phases[key], ms(ph.Wall))
				sum += ph.Wall
				if longest == nil || ph.Wall > longest.Wall {
					longest = ph
				}
			}
			sums = append(sums, ms(sum))
			residuals = append(residuals, r.traced[i][rep]-ms(sum))
			if longest != nil && longest.Metrics != nil {
				occupancy = append(occupancy, longest.Metrics.Occupancy)
				imbalance = append(imbalance, longest.Metrics.Imbalance)
			}
		}
		for key, walls := range phases {
			m.set("exec.phase_ms."+algo+"."+key, median(walls), "ms")
		}
		m.set("exec.occupancy."+algo, median(occupancy), "ratio")
		m.set("exec.imbalance."+algo, median(imbalance), "ratio")
		m.set("join.residual_ms."+algo, median(residuals), "ms")
		phaseSums[i] = median(sums)
	}
	return phaseSums
}

// overhead is the traced calls' median wall over the untraced calls',
// summed over the algorithms, minus one.
func (r *joinRuns) overhead() float64 {
	var tracedSum, plainSum float64
	for i := range algorithms {
		tracedSum += median(r.traced[i])
		plainSum += median(r.wall[i])
	}
	return tracedSum/plainSum - 1
}
