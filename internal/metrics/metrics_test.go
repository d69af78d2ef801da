package metrics

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestCounterTable(t *testing.T) {
	cases := []struct {
		name string
		ops  []uint64 // one Add per element; 0 means Inc
		want uint64
	}{
		{"zero", nil, 0},
		{"incs", []uint64{0, 0, 0}, 3},
		{"adds", []uint64{5, 7}, 12},
		{"mixed", []uint64{0, 10, 0, 3}, 15},
		{"large", []uint64{1 << 40, 1 << 40}, 1 << 41},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c Counter
			for _, n := range tc.ops {
				if n == 0 {
					c.Inc()
				} else {
					c.Add(n)
				}
			}
			if got := c.Value(); got != tc.want {
				t.Fatalf("Value() = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestGaugeTable(t *testing.T) {
	cases := []struct {
		name string
		sets []float64
		adds []float64
		want float64
	}{
		{"zero", nil, nil, 0},
		{"set", []float64{3.5}, nil, 3.5},
		{"set-overwrites", []float64{1, 2, -7.25}, nil, -7.25},
		{"adds", nil, []float64{1.5, 2.5, -1}, 3},
		{"set-then-add", []float64{10}, []float64{-2.5}, 7.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var g Gauge
			for _, v := range tc.sets {
				g.Set(v)
			}
			for _, v := range tc.adds {
				g.Add(v)
			}
			if got := g.Value(); got != tc.want {
				t.Fatalf("Value() = %g, want %g", got, tc.want)
			}
		})
	}
}

func TestHistogramSemantics(t *testing.T) {
	cases := []struct {
		name    string
		buckets []float64
		obs     []float64
		wantCum []uint64 // cumulative counts per bucket (excluding +Inf)
		wantCnt uint64
		wantSum float64
	}{
		{
			name:    "empty",
			buckets: []float64{1, 2},
			wantCum: []uint64{0, 0},
		},
		{
			name:    "exact-bound-goes-low", // le semantics: v == bound counts in that bucket
			buckets: []float64{1, 2, 4},
			obs:     []float64{1, 2, 2, 4},
			wantCum: []uint64{1, 3, 4},
			wantCnt: 4,
			wantSum: 9,
		},
		{
			name:    "overflow-to-inf",
			buckets: []float64{0.5},
			obs:     []float64{0.1, 0.6, 100},
			wantCum: []uint64{1},
			wantCnt: 3,
			wantSum: 100.7,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHistogram(tc.buckets)
			for _, v := range tc.obs {
				h.Observe(v)
			}
			_, cum := h.Buckets()
			if !reflect.DeepEqual(cum, tc.wantCum) {
				t.Errorf("cumulative buckets = %v, want %v", cum, tc.wantCum)
			}
			if h.Count() != tc.wantCnt {
				t.Errorf("Count() = %d, want %d", h.Count(), tc.wantCnt)
			}
			if math.Abs(h.Sum()-tc.wantSum) > 1e-12 {
				t.Errorf("Sum() = %g, want %g", h.Sum(), tc.wantSum)
			}
		})
	}
}

func TestHistogramRejectsUnsortedBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-increasing buckets")
		}
	}()
	newHistogram([]float64{1, 1})
}

func TestRing(t *testing.T) {
	r := NewRing(3)
	if _, ok := r.Last(); ok {
		t.Fatal("Last on empty ring should report false")
	}
	r.Push(1)
	r.Push(2)
	if got := r.Snapshot(); !reflect.DeepEqual(got, []float64{1, 2}) {
		t.Fatalf("partial Snapshot = %v", got)
	}
	r.Push(3)
	r.Push(4) // evicts 1
	r.Push(5) // evicts 2
	if got := r.Snapshot(); !reflect.DeepEqual(got, []float64{3, 4, 5}) {
		t.Fatalf("wrapped Snapshot = %v, want oldest-first [3 4 5]", got)
	}
	if r.Len() != 3 || r.Cap() != 3 {
		t.Fatalf("Len/Cap = %d/%d, want 3/3", r.Len(), r.Cap())
	}
	if r.Total() != 5 {
		t.Fatalf("Total = %d, want 5", r.Total())
	}
	if last, ok := r.Last(); !ok || last != 5 {
		t.Fatalf("Last = %g,%v, want 5,true", last, ok)
	}
}

// TestConcurrentIncrements drives every primitive from many goroutines;
// under -race this doubles as the data-race proof for the sharded counter,
// the gauge CAS loop and the histogram's atomic buckets.
func TestConcurrentIncrements(t *testing.T) {
	const (
		workers = 16
		perW    = 10_000
	)
	var (
		c  Counter
		g  Gauge
		h  = newHistogram([]float64{0.25, 0.5, 0.75})
		r  = NewRing(64)
		wg sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%4) * 0.25)
				r.Push(float64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*perW {
		t.Errorf("counter = %d, want %d", got, workers*perW)
	}
	if got := g.Value(); got != workers*perW {
		t.Errorf("gauge = %g, want %d", got, workers*perW)
	}
	if got := h.Count(); got != workers*perW {
		t.Errorf("histogram count = %d, want %d", got, workers*perW)
	}
	if got := r.Total(); got != workers*perW {
		t.Errorf("ring total = %d, want %d", got, workers*perW)
	}
	if r.Len() != 64 {
		t.Errorf("ring len = %d, want 64", r.Len())
	}
}

// TestRegistryConcurrentFirstUse has many goroutines look up the same
// not-yet-registered series at once, as the gateway's per-node counters
// are on the first requests to a node: every caller must get the one fully
// built instance (under -race, no access may race its construction).
func TestRegistryConcurrentFirstUse(t *testing.T) {
	const workers = 16
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reg.Counter("first_use_total", "x", "node", "n1").Inc()
			reg.Gauge("first_use_gauge", "x", "node", "n1").Add(1)
			reg.Histogram("first_use_seconds", "x", nil, "node", "n1").Observe(1)
		}()
	}
	wg.Wait()
	if got := reg.Counter("first_use_total", "x", "node", "n1").Value(); got != workers {
		t.Errorf("counter = %d, want %d", got, workers)
	}
	if got := reg.Gauge("first_use_gauge", "x", "node", "n1").Value(); got != workers {
		t.Errorf("gauge = %g, want %d", got, workers)
	}
	if got := reg.Histogram("first_use_seconds", "x", nil, "node", "n1").Count(); got != workers {
		t.Errorf("histogram count = %d, want %d", got, workers)
	}
}

func TestRegistryIdempotentAndConflicts(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "help", "engine", "simulated")
	b := reg.Counter("x_total", "help", "engine", "simulated")
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	other := reg.Counter("x_total", "help", "engine", "goroutine")
	if a == other {
		t.Fatal("distinct label sets must be distinct series")
	}
	h1 := reg.Histogram("h_seconds", "", []float64{1, 2})
	h2 := reg.Histogram("h_seconds", "", []float64{9, 10}) // buckets ignored on re-registration
	if h1 != h2 {
		t.Fatal("histogram re-registration must return the existing instance")
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("kind conflict", func() { reg.Gauge("x_total", "") })
	mustPanic("bad metric name", func() { reg.Counter("1bad", "") })
	mustPanic("bad label name", func() { reg.Counter("ok_total", "", "bad-label", "v") })
	mustPanic("odd labels", func() { reg.Counter("ok_total", "", "k") })
	mustPanic("duplicate func", func() {
		reg.GaugeFunc("f_gauge", "", func() float64 { return 1 })
		reg.GaugeFunc("f_gauge", "", func() float64 { return 2 })
	})
}

// TestExpositionGolden locks the exposition format byte-for-byte: families
// sorted by name, series by label block, histogram le/sum/count layout,
// label escaping. Regenerate with -update.
func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("core_global_iterations_total", "Completed global iterations.", "engine", "simulated").Add(42)
	reg.Counter("core_global_iterations_total", "Completed global iterations.", "engine", "goroutine").Add(7)
	reg.Gauge("service_queue_depth", "Queued jobs.").Set(3)
	reg.GaugeFunc("service_busy_workers", "Workers running a job.", func() float64 { return 2 })
	reg.CounterFunc("service_plan_cache_hits_total", "Plan cache hits.", func() uint64 { return 9 })
	reg.Gauge("weird_label_gauge", "Escaping.", "path", "a\\b\"c\nd").Set(1.5)
	h := reg.Histogram("core_solve_seconds", "Wall time per solve.", []float64{0.1, 1, 10}, "engine", "simulated")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(99)

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestExpositionParses is a light format validator: every non-comment line
// must be "name{labels} value" with a parseable value, and every series
// must be preceded by its TYPE line.
func TestExpositionParses(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "").Inc()
	reg.Histogram("b_seconds", "x", nil).Observe(0.2)
	reg.Gauge("c", "y").Set(-1.25)

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if cut, ok := strings.CutSuffix(name, suffix); ok && typed[cut] {
				base = cut
				break
			}
		}
		if !typed[base] {
			t.Errorf("series %q has no preceding TYPE line", line)
		}
		fields := strings.Fields(line)
		if _, err := parseValue(fields[len(fields)-1]); err != nil {
			t.Errorf("series %q: unparseable value: %v", line, err)
		}
	}
}

func parseValue(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}
