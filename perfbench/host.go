package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostInfo identifies the machine and build a run measured, so a spread
// between runs can be attributed to the host rather than the program.
type hostInfo struct {
	NumCPU       int     `json:"num_cpu"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	CPUModel     string  `json:"cpu_model"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	SourceDigest string  `json:"source_digest"`
	RefStartMS   float64 `json:"ref_ms_start"`
	RefEndMS     float64 `json:"ref_ms_end"`
}

func collectHost(root string) hostInfo {
	h := hostInfo{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       "unknown",
		SourceDigest: sourceDigest(root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources and module file (the
// benchmark's own directory excluded), identifying the code measured even
// in a checkout without version-control metadata.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// refLoopMS times the benchmark's fixed reference loop: multiply-adds
// streaming over 16 MiB of doubles (more than the caches hold, like the
// large operators' sweeps) plus a dependent integer hash chain. The median
// of five repetitions witnesses host speed; it never rescales a metric.
func refLoopMS() float64 {
	x := make([]float64, 1<<21)
	for i := range x {
		x[i] = float64(i%7) * 0.5
	}
	samples := make([]float64, 5)
	for r := range samples {
		t0 := time.Now()
		acc, h := 0.0, uint64(r+1)
		for pass := 0; pass < 8; pass++ {
			for i, v := range x {
				acc += v * x[(i+pass)&(len(x)-1)]
			}
			for i := 0; i < 1<<18; i++ {
				h ^= h << 13
				h ^= h >> 7
				h ^= h << 17
			}
		}
		samples[r] = time.Since(t0).Seconds() * 1e3
		if acc == -1 || h == 0 {
			samples[r]++ // keeps the loop's results live
		}
	}
	return median(samples)
}

// rssSampler records the peak resident set size of the process while it
// runs, polling /proc/self/statm (falling back to the Go runtime's mapped,
// unreleased memory where /proc is unavailable).
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.sample()
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	v := residentBytes()
	s.mu.Lock()
	if v > s.peak {
		s.peak = v
	}
	s.mu.Unlock()
}

// finish stops the sampler, waits for it and returns the peak in bytes.
func (s *rssSampler) finish() uint64 {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

func residentBytes() uint64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseUint(f[1], 10, 64); err == nil {
				return pages * uint64(os.Getpagesize())
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

// gcStats is a snapshot of the allocator and collector counters.
type gcStats struct {
	allocBytes uint64
	cycles     uint64
}

func readGC() gcStats {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return gcStats{allocBytes: s[0].Value.Uint64(), cycles: s[1].Value.Uint64()}
}

// liveHeap forces a collection and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// counters is one scrape of GET /metricsz, summed over label sets.
type counters map[string]float64

// scrape reads the service's Prometheus exposition through its handler.
func scrape(h http.Handler) counters {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	c := counters{}
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil || math.IsNaN(v) {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		c[name] += v
	}
	return c
}

// delta returns after[name] − before[name].
func delta(before, after counters, name string) float64 { return after[name] - before[name] }
