package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mmjoin/internal/datagen"
	"mmjoin/internal/join"
	"mmjoin/internal/server"
	"mmjoin/internal/tuple"
)

// op is a query type of the service mix.
type op int

const (
	opProbe op = iota // small inner probe, served from the build cache
	opScan            // large inner probe, served from the build cache
	opAnti            // left-anti join, which the cache cannot serve
	numOps
)

var opNames = [numOps]string{"probe", "scan", "anti"}

// opAt is the type of a client's i-th query.
func (sh serviceShape) opAt(i int) op {
	switch {
	case (i+1)%sh.scanEvery == 0:
		return opScan
	case (i+1)%sh.antiEvery == 0:
		return opAnti
	}
	return opProbe
}

// probeRelations is how many distinct relations each small query type
// rotates through.
const probeRelations = 2

// minTailSamples is the fewest samples of a query type whose p99 is
// reported: with it, minBeyond samples lie beyond the p99.
const minTailSamples = 100 * minBeyond

// servicePart is a running server with its registered relations and the
// expected output of every query the mix sends.
type servicePart struct {
	shape serviceShape
	srv   *server.Server
	rels  [numOps][]string
	want  map[string]expect // by probe relation
}

// setupService generates the hot build relation and the probe
// relations, takes every query's expected output from the reference
// join, opens a default server, registers the relations, and sends one
// query of each type (the first one builds the cached table).
func setupService(ctx context.Context, shape serviceShape, seed uint64) (*servicePart, error) {
	w, err := datagen.Generate(datagen.Config{BuildSize: shape.hot, ProbeSize: shape.scan, Seed: seed ^ 0x5e41ce})
	if err != nil {
		return nil, fmt.Errorf("generate service relations: %w", err)
	}
	rels := map[string]tuple.Relation{"scan": w.Probe}
	sp := &servicePart{shape: shape, want: map[string]expect{}}
	sp.rels[opScan] = []string{"scan"}
	for i := 0; i < probeRelations; i++ {
		p, a := fmt.Sprintf("probe%d", i), fmt.Sprintf("anti%d", i)
		rels[p] = datagen.UniformRelation(shape.probe, shape.hot, seed+uint64(i)+1)
		// Anti probes draw from twice the key domain, so about half of
		// their tuples have no partner and make the output.
		rels[a] = datagen.UniformRelation(shape.probe, 2*shape.hot, seed+uint64(i)+101)
		sp.rels[opProbe] = append(sp.rels[opProbe], p)
		sp.rels[opAnti] = append(sp.rels[opAnti], a)
	}
	for o := op(0); o < numOps; o++ {
		for _, name := range sp.rels[o] {
			ref, err := join.Reference{}.RunContext(ctx, w.Build, rels[name], &join.Options{Kind: o.kind()})
			if err != nil {
				return nil, fmt.Errorf("reference join for %s: %w", name, err)
			}
			sp.want[name] = expectOf(ref)
		}
	}
	sp.srv = server.Open(server.Config{})
	if err := sp.srv.RegisterRelation("hot", w.Build); err != nil {
		return nil, sp.failSetup(err)
	}
	for name, rel := range rels {
		if err := sp.srv.RegisterRelation(name, rel); err != nil {
			return nil, sp.failSetup(err)
		}
	}
	for o := op(0); o < numOps; o++ {
		name := sp.rels[o][0]
		resp, err := sp.srv.Join(ctx, server.Query{Build: "hot", Probe: name, Kind: o.kind()})
		if err != nil {
			return nil, sp.failSetup(fmt.Errorf("warm-up %s: %w", name, err))
		}
		if expectOf(resp.Result) != sp.want[name] {
			return nil, sp.failSetup(fmt.Errorf("warm-up %s: %d matches, reference join has %d", name, resp.Result.Matches, sp.want[name].matches))
		}
	}
	return sp, nil
}

func (o op) kind() join.Kind {
	if o == opAnti {
		return join.LeftAnti
	}
	return join.Inner
}

func (sp *servicePart) failSetup(err error) error {
	if cerr := sp.srv.Close(); cerr != nil {
		return fmt.Errorf("%w (and close: %v)", err, cerr)
	}
	return err
}

// opSample is one successful query as its client saw it and as the
// service reported it.
type opSample struct {
	op      op
	client  time.Duration // the client's wall time around Server.Join
	latency time.Duration // Response.Latency
	total   time.Duration // Result.Total
	build   time.Duration // Result.BuildOrPartition
}

// serviceRuns is what the service part measured.
type serviceRuns struct {
	window  time.Duration // time the clients ran
	samples []opSample
	counts  [numOps]int
	before  server.Metrics
	after   server.Metrics
}

// enough reports whether every query type has the samples its reported
// percentiles need.
func (r *serviceRuns) enough() bool {
	return r.counts[opProbe] >= minTailSamples && r.counts[opAnti] >= minTailSamples && r.counts[opScan] >= minBeyond
}

// measure adds d of closed-loop traffic to r: clients each send their
// next query when the previous one returns. Every response is checked.
func (sp *servicePart) measure(ctx context.Context, r *serviceRuns, d time.Duration, clients int, rec *recorder, parent int, t *tally) {
	start := time.Now()
	deadline := start.Add(d)
	perClient := make([][]opSample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				o := sp.shape.opAt(i)
				names := sp.rels[o]
				name := names[(i/sp.shape.antiEvery+c)%len(names)]
				span := rec.begin("service."+opNames[o], parent, c+1)
				begin := time.Now()
				resp, err := sp.srv.Join(ctx, server.Query{Build: "hot", Probe: name, Kind: o.kind()})
				wall := time.Since(begin)
				rec.end(span)
				var res *join.Result
				if err == nil {
					res = resp.Result
				}
				if !t.verify("service "+opNames[o]+" on "+name, res, err, sp.want[name], false) {
					continue
				}
				perClient[c] = append(perClient[c], opSample{op: o, client: wall, latency: resp.Latency, total: res.Total, build: res.BuildOrPartition})
			}
		}(c)
	}
	wg.Wait()
	r.window += time.Since(start)
	for _, s := range perClient {
		for _, x := range s {
			r.counts[x.op]++
		}
		r.samples = append(r.samples, s...)
	}
}

// pick returns f of each sample of one query type (of every sample when
// o is numOps).
func (r *serviceRuns) pick(o op, f func(opSample) float64) []float64 {
	var out []float64
	for _, s := range r.samples {
		if o == numOps || s.op == o {
			out = append(out, f(s))
		}
	}
	return out
}

// endToEnd sets the client-observed metrics. It reports a p99 that
// has fewer than minBeyond samples beyond it as a failure.
func (r *serviceRuns) endToEnd(m metrics, t *tally) {
	clientWall := func(s opSample) float64 { return float64(s.client) }
	probeP50, probeP99, ok := tail(r.pick(opProbe, clientWall))
	if !ok {
		t.fail("only %d probe samples: too few for a p99", r.counts[opProbe])
	}
	antiP50, antiP99, ok := tail(r.pick(opAnti, clientWall))
	if !ok {
		t.fail("only %d anti samples: too few for a p99", r.counts[opAnti])
	}
	m.set("probe_p50_us", probeP50/1e3, "us")
	m.set("probe_p99_us", probeP99/1e3, "us")
	m.set("scan_p50_ms", median(r.pick(opScan, clientWall))/1e6, "ms")
	m.set("anti_p50_ms", antiP50/1e6, "ms")
	m.set("anti_p99_ms", antiP99/1e6, "ms")
	m.set("qps", float64(len(r.samples))/r.window.Seconds(), "1/s")
}

// perLayer sets the server metrics: where a query's time went between
// the client, the service's own work, and the join it ran.
func (r *serviceRuns) perLayer(m metrics) {
	self := func(s opSample) float64 { return us(s.latency - s.total) }
	joined := func(s opSample) float64 { return us(s.total) }
	for o := op(0); o < numOps; o++ {
		m.set("server.self_us.p50."+opNames[o], median(r.pick(o, self)), "us")
		m.set("server.join_us.p50."+opNames[o], median(r.pick(o, joined)), "us")
	}
	m.set("server.anti_build_ms.p50", median(r.pick(opAnti, func(s opSample) float64 { return ms(s.build) })), "ms")
	m.set("server.client_gap_us.p50", median(r.pick(numOps, func(s opSample) float64 { return us(s.client - s.latency) })), "us")
	hits, misses := r.after.Hits-r.before.Hits, r.after.Misses-r.before.Misses
	m.set("server.hit_rate", float64(hits)/float64(hits+misses), "ratio")
	m.set("server.shed_frac", float64(r.after.Shed-r.before.Shed)/float64(r.after.Queries-r.before.Queries), "ratio")
	for o := op(0); o < numOps; o++ {
		m.set("bench.samples."+opNames[o], float64(r.counts[o]), "count")
	}
}
