package memo

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

var errCompute = errors.New("compute failed")

// step is one lookup of TestCache.
type step struct {
	key  string
	val  int64 // compute's result
	fail bool  // compute returns errCompute
	// joiners Get the key while this step's compute is held open; each
	// must be Joined and share the computed value or error.
	joiners int
	// peek looks the key up with Peek instead: want Cached means found.
	peek bool
	want Outcome
}

// TestCache drives a cache through a sequence of lookups per case. A value
// is also its size, so byte bounds are counted in values.
func TestCache(t *testing.T) {
	for _, tc := range []struct {
		name       string
		maxEntries int
		maxBytes   int64
		steps      []step
		resident   []string
		evicted    []string
		want       Stats
	}{
		{
			name: "computed-cached-joined",
			steps: []step{
				{key: "a", val: 1, joiners: 3, want: Computed},
				{key: "a", val: 9, want: Cached},
				{key: "b", val: 2, want: Computed},
				{key: "b", val: 9, want: Cached},
			},
			resident: []string{"a", "b"},
			want:     Stats{Hits: 2, Joins: 3, Misses: 2, Entries: 2, Bytes: 3},
		},
		{
			name: "error-not-kept",
			steps: []step{
				{key: "a", val: 1, fail: true, joiners: 2, want: Computed},
				{key: "a", val: 2, want: Computed},
				{key: "a", val: 9, want: Cached},
			},
			resident: []string{"a"},
			want:     Stats{Hits: 1, Joins: 2, Misses: 2, Entries: 1, Bytes: 2},
		},
		{
			name:       "entry-bound-evicts-lru",
			maxEntries: 2,
			steps: []step{
				{key: "a", val: 1, want: Computed},
				{key: "b", val: 1, want: Computed},
				{key: "a", val: 9, want: Cached},
				{key: "c", val: 1, want: Computed}, // evicts b, the least recently used
				{key: "b", val: 1, want: Computed}, // evicts a
			},
			resident: []string{"b", "c"},
			evicted:  []string{"a"},
			want:     Stats{Hits: 1, Misses: 4, Evictions: 2, Entries: 2, Bytes: 2},
		},
		{
			name:     "byte-bound-keeps-newest",
			maxBytes: 10,
			steps: []step{
				{key: "a", val: 4, want: Computed},
				{key: "b", val: 4, want: Computed},
				{key: "a", val: 9, want: Cached},
				{key: "c", val: 5, want: Computed},  // evicts b
				{key: "d", val: 25, want: Computed}, // over the bound alone: evicts a and c
			},
			resident: []string{"d"},
			evicted:  []string{"a", "b", "c"},
			want:     Stats{Hits: 1, Misses: 4, Evictions: 3, Entries: 1, Bytes: 25},
		},
		{
			name:       "peek-counts-nothing",
			maxEntries: 2,
			steps: []step{
				{key: "a", val: 1, want: Computed},
				{key: "b", val: 1, want: Computed},
				{key: "a", peek: true, want: Cached},
				{key: "x", peek: true, want: Computed},
				{key: "c", val: 1, want: Computed}, // evicts a: the Peek did not refresh it
			},
			resident: []string{"b", "c"},
			evicted:  []string{"a", "x"},
			want:     Stats{Misses: 3, Evictions: 1, Entries: 2, Bytes: 2},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string, int64](tc.maxEntries, tc.maxBytes, func(v int64) int64 { return v })
			vals := map[string]int64{}
			for i, s := range tc.steps {
				if s.peek {
					if _, ok := c.Peek(s.key); ok != (s.want == Cached) {
						t.Fatalf("step %d: Peek(%q) found=%t", i, s.key, ok)
					}
					continue
				}
				runStep(t, c, i, s, vals)
			}
			if got := c.Stats(); got != tc.want {
				t.Fatalf("stats = %+v, want %+v", got, tc.want)
			}
			for _, k := range tc.resident {
				if v, ok := c.Peek(k); !ok || v != vals[k] {
					t.Errorf("Peek(%q) = %d, %t; want %d resident", k, v, ok, vals[k])
				}
			}
			for _, k := range tc.evicted {
				if _, ok := c.Peek(k); ok {
					t.Errorf("Peek(%q) found an evicted key", k)
				}
			}
			if got := c.Stats(); got != tc.want {
				t.Fatalf("stats after Peek = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// runStep runs step i's Get, holding its compute until the step's joiners
// have been counted, then checks every outcome. vals holds each key's last
// computed value.
func runStep(t *testing.T, c *Cache[string, int64], i int, s step, vals map[string]int64) {
	t.Helper()
	type result struct {
		v   int64
		o   Outcome
		err error
	}
	started, release := make(chan struct{}), make(chan struct{})
	compute := func() (int64, error) {
		close(started)
		<-release
		if s.fail {
			return 0, errCompute
		}
		return s.val, nil
	}
	lookups := func() uint64 { st := c.Stats(); return st.Hits + st.Joins + st.Misses }
	before := lookups()
	lead := make(chan result, 1)
	go func() {
		v, o, err := c.Get(s.key, compute)
		lead <- result{v, o, err}
	}()
	joined := make(chan result, s.joiners)
	if s.joiners > 0 {
		<-started
		for j := 0; j < s.joiners; j++ {
			go func() {
				v, o, err := c.Get(s.key, func() (int64, error) { return -1, nil })
				joined <- result{v, o, err}
			}()
		}
		deadline := time.Now().Add(10 * time.Second)
		for lookups() < before+1+uint64(s.joiners) {
			if time.Now().After(deadline) {
				t.Fatalf("step %d: the joiners never reached the cache", i)
			}
			runtime.Gosched()
		}
	}
	close(release)

	wantVal := vals[s.key]
	if s.want == Computed {
		wantVal = s.val
	}
	check := func(who string, r result, want Outcome) {
		switch {
		case r.o != want:
			t.Errorf("step %d %s: outcome %d, want %d", i, who, r.o, want)
		case s.fail && !errors.Is(r.err, errCompute):
			t.Errorf("step %d %s: err = %v, want the compute error", i, who, r.err)
		case !s.fail && (r.err != nil || r.v != wantVal):
			t.Errorf("step %d %s: Get = %d, %v; want %d", i, who, r.v, r.err, wantVal)
		}
	}
	check("leader", <-lead, s.want)
	for j := 0; j < s.joiners; j++ {
		check("joiner", <-joined, Joined)
	}
	if s.want == Computed && !s.fail {
		vals[s.key] = s.val
	}
}
