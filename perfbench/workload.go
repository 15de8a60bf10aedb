package main

import (
	"fmt"
	"runtime"
	"sync"

	"mmjoin/internal/join"
)

// joinShape is the input of a workload's join part: the four algorithms
// run in turn on R ⋈ S.
type joinShape struct {
	build    int // |R|: unique dense keys
	probe    int // |S|: uniform foreign keys into R
	kind     join.Kind
	nullFrac float64 // share of NULL keys on each side (0: none)
}

// serviceShape is a workload's closed-loop service traffic: clients
// each send their next query when the previous one has returned.
type serviceShape struct {
	hot       int // tuples of the one cached build relation
	probe     int // tuples of each small inner probe (a cache hit)
	scan      int // tuples of the large inner probe
	scanEvery int // every scanEvery-th query of a client is a scan
	antiEvery int // every antiEvery-th query that is no scan is a left-anti join
}

// workload is one named benchmark input. Every workload has a join part
// and a service part, so every run reports every metric.
type workload struct {
	name    string
	join    joinShape
	service serviceShape
}

// serviceMix is the service part of every workload: a hot build relation
// of 2^18 tuples (2 MiB), cached by the server, and per client
//   - 1024-tuple inner probes, cache hits, whose time goes to the
//     service's own per-query work;
//   - every 64th query a 2^20-tuple scan, whose time goes to the chained
//     probe kernel;
//   - every 16th query a left-anti join, which the cache cannot serve, so
//     its time goes to building a table.
var serviceMix = serviceShape{hot: 1 << 18, probe: 1 << 10, scan: 1 << 20, scanEvery: 64, antiEvery: 16}

// workloads are the benchmark's inputs. Why each was chosen:
//
//   - join-inner: the paper's main contrast. At |R| = 2^23 the global
//     tables of NOP and CHTJ (128 MiB chained) are 4x a 32 MiB L3 and live
//     in DRAM, while CPRL and PRA work in radix scatter and small
//     co-partition tables that fit in cache. At 2^21 the table is the
//     size of the L3 and neighbour load swings NOP by up to 3x.
//   - join-outer: the same relations and layers used differently. The
//     probe writes match marks into the table and a padding pass reads
//     them back.
//
// A third workload that gave most of its time to the service, with its
// join part on the service's 2^18 x 2^20 scan shape, was dropped: joins
// of that size live in the L3, and neighbour load on a shared host moved
// their medians by a quarter between runs.
func workloads() []workload {
	big := joinShape{build: 1 << 23, probe: 1 << 24, kind: join.Inner}
	outer := big
	outer.kind, outer.nullFrac = join.FullOuter, 0.1
	return []workload{
		{name: "join-inner", join: big, service: serviceMix},
		{name: "join-outer", join: outer, service: serviceMix},
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// parallelism is the worker, client and slot count: two, as the
// workloads were sized for, but never more than the host's CPUs.
func parallelism() int { return min(2, runtime.NumCPU()) }

// tally counts the operations a run attempted and those that failed: an
// error, a shed or expired query, or a wrong result. The first few
// problems are kept for the report.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	problems  []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if len(t.problems) < 8 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// expect is a join's correct output, from the reference join.
type expect struct {
	matches  int64
	checksum uint64
}

func expectOf(r *join.Result) expect { return expect{r.Matches, r.Checksum} }

// verify counts one operation and whether it returned the expected
// output. corrupt flips the observed checksum; the benchmark's own test
// uses it to show that a wrong output fails the run.
func (t *tally) verify(what string, r *join.Result, err error, want expect, corrupt bool) bool {
	if err != nil {
		t.fail("%s: %v", what, err)
		return false
	}
	got := expectOf(r)
	if corrupt {
		got.checksum ^= 1
	}
	if got != want {
		t.fail("%s: got %d matches checksum %#x, want %d and %#x", what, got.matches, got.checksum, want.matches, want.checksum)
		return false
	}
	t.ok()
	return true
}
