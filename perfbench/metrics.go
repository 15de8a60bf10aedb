package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics collects the named numbers of one run.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// spec is the part of BENCHMARK.json the benchmark checks itself
// against: which workloads exist and which metrics each mode must emit.
type spec struct {
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

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse benchmark spec %s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// check reports every difference between the emitted metrics and the
// ones the spec declares for the mode: a missing, extra or renamed
// metric, a unit that differs, a badly formed name, a value that is not
// a finite number, or an end-to-end value that is not positive.
func (s *spec) check(m metrics, traced bool) []string {
	want := s.EndToEnd
	if traced {
		want = s.PerLayer
	}
	var problems []string
	declared := make(map[string]bool, len(want))
	for _, w := range want {
		declared[w.Name] = true
		got, ok := m[w.Name]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("declared metric %s was not measured", w.Name))
		case got.Unit != w.Unit:
			problems = append(problems, fmt.Sprintf("metric %s has unit %q, declared %q", w.Name, got.Unit, w.Unit))
		}
	}
	for _, name := range sortedKeys(m) {
		if !declared[name] {
			problems = append(problems, fmt.Sprintf("metric %s is not declared in the spec", name))
		}
		if !nameRE.MatchString(name) || m[name].Unit == "" {
			problems = append(problems, fmt.Sprintf("metric %q has a malformed name or no unit", name))
		}
		switch v := m[name].Value; {
		case math.IsNaN(v) || math.IsInf(v, 0):
			problems = append(problems, fmt.Sprintf("metric %s is not a finite number", name))
		case !traced && v <= 0:
			// End-to-end metrics are compared as shares of their medians.
			problems = append(problems, fmt.Sprintf("end-to-end metric %s is not positive", name))
		}
	}
	return problems
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// phaseKey maps an execution phase label to the metric-name alphabet:
// "partition(S)/scatter" becomes "partition_S.scatter". The mapping is
// fixed, so a renamed phase yields a name the spec does not declare and
// fails the run instead of dropping the metric.
func phaseKey(label string) string {
	var b strings.Builder
	for _, r := range label {
		switch {
		case r == '(':
			b.WriteByte('_')
		case r == ')':
		case r == '/':
			b.WriteByte('.')
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '.', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// quantile returns the q-quantile of sorted by the nearest-rank rule,
// an actual sample rather than an interpolation, together with the
// number of samples that lie beyond it.
func quantile(sorted []float64, q float64) (value float64, beyond int) {
	if len(sorted) == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], len(sorted) - rank
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile; with fewer the percentile is one or two outliers.
const minBeyond = 10

// tail reports the p50 and p99 of xs. ok is false when fewer than
// minBeyond samples lie beyond the p99, which the caller treats as a
// failed run rather than printing a p99 made of a few outliers.
func tail(xs []float64) (p50, p99 float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p50, _ = quantile(s, 0.50)
	p99, beyond := quantile(s, 0.99)
	return p50, p99, beyond >= minBeyond
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := quantile(s, 0.5)
	return v
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
