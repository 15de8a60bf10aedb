package main

import (
	"context"
	"fmt"
	"time"

	"mmjoin/internal/datagen"
	"mmjoin/internal/exec"
	"mmjoin/internal/hashfn"
	"mmjoin/internal/hashtable"
	"mmjoin/internal/join"
	"mmjoin/internal/radix"
	"mmjoin/internal/tuple"
)

// kernelReps is how often each standalone layer call runs; the median
// is reported.
const kernelReps = 3

// kernels holds the standalone cost of each layer the four joins are
// made of, in ns per input tuple.
type kernels struct {
	r, s           int                // build and probe tuples the joins' kernels process
	build, probe   map[string]float64 // by table: chained, linear, cht, linear.part, array.part
	histogram      float64            // radix.Histogram, one thread
	scatterGlobal  float64            // radix.PartitionGlobalExec (histogram and scatter passes)
	scatterChunked float64            // radix.PartitionChunkedExec
}

// nonNull drops NULL-keyed tuples: the standalone tables serve inner
// joins, the part of an outer join that the kernels execute.
func nonNull(rel tuple.Relation) tuple.Relation {
	out := make(tuple.Relation, 0, len(rel))
	for _, tp := range rel {
		if tp.Key != tuple.NullKey {
			out = append(out, tp)
		}
	}
	return out
}

// measureKernels times the benchmark's own calls into the hashtable and
// radix layers on the join part's inputs, at the radix bits CPRL and
// PRA chose. Outputs are checked: the full-size tables must agree with
// each other (and with the reference join for an inner workload), the
// partitioners must keep every tuple, and every probe of a co-partition
// table must match.
func measureKernels(ctx context.Context, jp *joinPart, cprlBits, praBits uint, seed uint64, rec *recorder, parent int, t *tally) *kernels {
	r, s := jp.rel.Build, jp.rel.Probe
	if jp.shape.nullFrac > 0 {
		r, s = nonNull(r), nonNull(s)
	}
	k := &kernels{r: len(r), s: len(s), build: map[string]float64{}, probe: map[string]float64{}}
	opts := &join.Options{Threads: jp.threads}

	var agreed *expect
	if jp.shape.kind == join.Inner && jp.shape.nullFrac == 0 {
		agreed = &jp.want
	}
	for _, design := range []join.TableDesign{join.DesignChained, join.DesignLinear, join.DesignCHT} {
		var builds, probes []float64
		for rep := 0; rep < kernelReps; rep++ {
			sp := rec.begin("hashtable.build."+design.String(), parent, 0)
			start := time.Now()
			bt, err := join.BuildTable(ctx, r, design, opts)
			built := time.Since(start)
			rec.end(sp)
			if err != nil {
				t.fail("build %v table: %v", design, err)
				continue
			}
			t.ok()
			sp = rec.begin("hashtable.probe."+design.String(), parent, 0)
			start = time.Now()
			res, err := join.ProbeTable(ctx, bt, s, opts)
			probed := time.Since(start)
			rec.end(sp)
			bt.Release()
			if err == nil && agreed == nil {
				e := expectOf(res)
				agreed = &e
			}
			var want expect
			if agreed != nil {
				want = *agreed
			}
			if !t.verify("probe "+design.String()+" table", res, err, want, false) {
				continue
			}
			builds = append(builds, nsPer(built, len(r)))
			probes = append(probes, nsPer(probed, len(s)))
		}
		k.build[design.String()] = median(builds)
		k.probe[design.String()] = median(probes)
	}

	var hist, global, chunked []float64
	for rep := 0; rep < kernelReps; rep++ {
		sp := rec.begin("radix.histogram", parent, 0)
		start := time.Now()
		h := radix.Histogram(s, praBits)
		hist = append(hist, nsPer(time.Since(start), len(s)))
		rec.end(sp)
		if total := sum(h); total != len(s) {
			t.fail("radix histogram counts %d of %d tuples", total, len(s))
		} else {
			t.ok()
		}

		pool := exec.NewPool(ctx, jp.threads)
		sp = rec.begin("radix.partition.global", parent, 0)
		start = time.Now()
		g, err := radix.PartitionGlobalExec(pool, "partition(S)", s, praBits, true)
		elapsed := time.Since(start)
		rec.end(sp)
		if err != nil {
			t.fail("global partitioning: %v", err)
		} else {
			global = append(global, nsPer(elapsed, len(s)))
			checkParts(t, "global", g.Parts(), g.PartLen, len(s))
			g.Release(pool.Arena())
		}

		pool = exec.NewPool(ctx, jp.threads)
		sp = rec.begin("radix.partition.chunked", parent, 0)
		start = time.Now()
		c, err := radix.PartitionChunkedExec(pool, "partition(S)", s, cprlBits, true)
		elapsed = time.Since(start)
		rec.end(sp)
		if err != nil {
			t.fail("chunked partitioning: %v", err)
		} else {
			chunked = append(chunked, nsPer(elapsed, len(s)))
			checkParts(t, "chunked", c.Parts(), c.PartLen, len(s))
			c.Release(pool.Arena())
		}
	}
	k.histogram, k.scatterGlobal, k.scatterChunked = median(hist), median(global), median(chunked)

	for _, part := range []struct {
		name string
		bits uint
	}{{"linear.part", cprlBits}, {"array.part", praBits}} {
		sp := rec.begin("hashtable.part."+part.name, parent, 0)
		b, p := partTable(part.name, len(r)>>part.bits, len(s)>>part.bits, 1<<part.bits, seed, t)
		rec.end(sp)
		k.build[part.name], k.probe[part.name] = b, p
	}
	return k
}

func nsPer(d time.Duration, tuples int) float64 { return float64(d) / float64(max(tuples, 1)) }

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

func checkParts(t *tally, what string, parts int, partLen func(int) int, want int) {
	total := 0
	for p := 0; p < parts; p++ {
		total += partLen(p)
	}
	if total != want {
		t.fail("%s partitioning kept %d of %d tuples", what, total, want)
		return
	}
	t.ok()
}

// partTable times what a radix join does per co-partition: reset a
// table, build it from n dense keys a batch at a time, probe it with m
// foreign keys through the fused batch kernel. It does this parts
// times, once per partition of the join, on one thread, and returns the
// median build and probe ns per tuple over kernelReps rounds.
func partTable(design string, n, m, parts int, seed uint64, t *tally) (buildNs, probeNs float64) {
	n, m = max(n, 1), max(m, 1)
	w, err := datagen.Generate(datagen.Config{BuildSize: n, ProbeSize: m, Seed: seed ^ 0x9a27})
	if err != nil {
		t.fail("generate %s input: %v", design, err)
		return 0, 0
	}
	var tbl interface {
		Reset()
		BuildBatch(keys []tuple.Key, payloads []tuple.Payload, s *hashtable.BatchScratch)
		ProbeJoinBatch(keys []tuple.Key, probePayloads []tuple.Payload, s *hashtable.BatchScratch, out *hashtable.MatchBatch)
	}
	if design == "array.part" {
		tbl = hashtable.NewArrayTable(0, n)
	} else {
		tbl = hashtable.NewLinearTable(n, hashfn.Identity)
	}
	var scratch hashtable.BatchScratch
	var out hashtable.MatchBatch
	keys := make([]tuple.Key, hashtable.BatchSize)
	pays := make([]tuple.Payload, hashtable.BatchSize)
	gather := func(rel tuple.Relation) int {
		for i, tp := range rel {
			keys[i], pays[i] = tp.Key, tp.Payload
		}
		return len(rel)
	}
	var builds, probes []float64
	for rep := 0; rep < kernelReps; rep++ {
		var built, probed time.Duration
		matches := 0
		for p := 0; p < parts; p++ {
			start := time.Now()
			tbl.Reset()
			for lo := 0; lo < n; lo += hashtable.BatchSize {
				k := gather(w.Build[lo:min(lo+hashtable.BatchSize, n)])
				tbl.BuildBatch(keys[:k], pays[:k], &scratch)
			}
			mid := time.Now()
			for lo := 0; lo < m; lo += hashtable.BatchSize {
				k := gather(w.Probe[lo:min(lo+hashtable.BatchSize, m)])
				tbl.ProbeJoinBatch(keys[:k], pays[:k], &scratch, &out)
				matches += out.N
			}
			built += mid.Sub(start)
			probed += time.Since(mid)
		}
		if matches != parts*m {
			t.fail("%s table matched %d of %d probes", design, matches, parts*m)
			continue
		}
		t.ok()
		builds = append(builds, nsPer(built, parts*n))
		probes = append(probes, nsPer(probed, parts*m))
	}
	return median(builds), median(probes)
}

// predictMs is the time the standalone layers predict for one
// algorithm's phases. Kernels measured on one thread are divided by the
// join's thread count; the full-size tables and the partitioners were
// measured at that thread count.
func (k *kernels) predictMs(algo string, threads int) float64 {
	r, s := k.r, k.s
	rs := float64(r + s)
	perThread := func(table string) float64 {
		return (k.build[table]*float64(r) + k.probe[table]*float64(s)) / float64(threads)
	}
	var ns float64
	switch algo {
	case "NOP":
		ns = k.build["linear"]*float64(r) + k.probe["linear"]*float64(s)
	case "CHTJ":
		ns = k.build["cht"]*float64(r) + k.probe["cht"]*float64(s)
	case "CPRL":
		ns = k.scatterChunked*rs + perThread("linear.part")
	case "PRA":
		ns = k.scatterGlobal*rs + perThread("array.part")
	default:
		panic(fmt.Sprintf("no prediction for %s", algo))
	}
	return ns / 1e6
}

// perLayer sets the hashtable and radix metrics.
func (k *kernels) perLayer(m metrics) {
	for table := range k.build {
		m.set("hashtable.build_ns_per_tuple."+table, k.build[table], "ns/tuple")
		m.set("hashtable.probe_ns_per_tuple."+table, k.probe[table], "ns/tuple")
	}
	m.set("radix.histogram_ns_per_tuple", k.histogram, "ns/tuple")
	m.set("radix.scatter_ns_per_tuple.global", k.scatterGlobal, "ns/tuple")
	m.set("radix.scatter_ns_per_tuple.chunked", k.scatterChunked, "ns/tuple")
}
