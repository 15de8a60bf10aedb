package main

import (
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"mmjoin/internal/offheap"
)

// host is the machine fingerprint printed with every result, so that a
// number from another machine is not compared with this one by mistake.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	L2Bytes    int64  `json:"l2_bytes"`
	L3Bytes    int64  `json:"l3_bytes"`
	THP        string `json:"thp"`
	GoVersion  string `json:"go_version"`
	// OffHeapEnv is MMJOIN_OFFHEAP as set; OffHeap is whether the
	// off-heap allocator is live under it.
	OffHeapEnv string `json:"mmjoin_offheap"`
	OffHeap    bool   `json:"offheap_available"`
}

func readHost() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		THP:        "unknown",
		GoVersion:  runtime.Version(),
		OffHeapEnv: os.Getenv("MMJOIN_OFFHEAP"),
		OffHeap:    offheap.Available(),
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level := readTrim(filepath.Join(d, "level"))
		size := parseCacheSize(readTrim(filepath.Join(d, "size")))
		switch level {
		case "2":
			h.L2Bytes = size
		case "3":
			h.L3Bytes = size
		}
	}
	// The active mode is the bracketed word: "always [madvise] never".
	if s := readTrim("/sys/kernel/mm/transparent_hugepage/enabled"); s != "" {
		if i, j := strings.IndexByte(s, '['), strings.IndexByte(s, ']'); i >= 0 && j > i {
			h.THP = s[i+1 : j]
		}
	}
	return h
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// parseCacheSize parses sysfs cache sizes such as "1024K" or "32M".
func parseCacheSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

// sampler polls the Go heap while a workload runs and keeps its peak.
type sampler struct {
	stop chan struct{}
	done sync.WaitGroup
	mu   sync.Mutex
	heap uint64
}

const sampleEvery = 10 * time.Millisecond

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.sample()
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

var heapSample = []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

func (s *sampler) sample() {
	heap := make([]rtmetrics.Sample, len(heapSample))
	copy(heap, heapSample)
	rtmetrics.Read(heap)
	s.mu.Lock()
	defer s.mu.Unlock()
	if heap[0].Value.Kind() == rtmetrics.KindUint64 {
		s.heap = max(s.heap, heap[0].Value.Uint64())
	}
}

// finish stops the sampler, waits for it, and returns the peak heap in
// bytes.
func (s *sampler) finish() uint64 {
	close(s.stop)
	s.done.Wait()
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heap
}

// peakResidentBytes is the process's peak resident set since it started,
// set-up included: VmHWM from /proc/self/status, or 0 where there is none.
func peakResidentBytes() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(kb), "kB")), 10, 64)
			if err != nil {
				return 0
			}
			return n << 10
		}
	}
	return 0
}

// gcCPUSeconds is the CPU time the collector has used so far.
func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
