package metrics

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration is idempotent: asking for a metric with a
// name/label set that already exists returns the existing instance, so
// instrumented code can re-register freely (a warm plan cache, repeated
// solves). Registering the same name with a different kind — or a
// malformed name or label — panics: those are programming errors, caught
// by any test that touches the instrumented path.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // registration order not kept; sorted on render
}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// family is one metric name: help, type, and the series per label set.
type family struct {
	name   string
	help   string
	kind   kind
	series map[string]*series // key: rendered label block ("{k=\"v\"}" or "")
	order  []string
}

// series is one (name, labels) time series. Exactly one of the value
// sources is set.
type series struct {
	labels      string
	counter     *Counter
	counterFunc func() uint64
	gauge       *Gauge
	gaugeFunc   func() float64
	hist        *Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// labelBlock renders alternating key/value pairs into a canonical label
// block. Keys are kept in the given order (callers pass a fixed order, so
// identical label sets produce identical keys).
func labelBlock(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list %q (want key, value pairs)", labels))
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if !nameRE.MatchString(labels[i]) {
			panic(fmt.Sprintf("metrics: invalid label name %q", labels[i]))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// register returns the series for name+labels, creating family and series
// as needed; fresh reports whether this call created the series, and init
// fills a fresh series under the lock, so a concurrent first use of the
// same series never observes it half-built.
func (r *Registry) register(name, help string, k kind, labels []string, init func(*series)) (s *series, fresh bool) {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	lb := labelBlock(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, series: make(map[string]*series)}
		r.families[name] = f
		r.names = append(r.names, name)
	} else if f.kind != k {
		panic(fmt.Sprintf("metrics: %s already registered as %s, now requested as %s", name, f.kind, k))
	}
	s, ok = f.series[lb]
	if !ok {
		s = &series{labels: lb}
		init(s)
		f.series[lb] = s
		f.order = append(f.order, lb)
	}
	return s, !ok
}

// Counter returns the counter for name and the given key/value label pairs,
// registering it on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s, _ := r.register(name, help, kindCounter, labels, func(s *series) { s.counter = &Counter{} })
	if s.counter == nil {
		panic(fmt.Sprintf("metrics: %s%s is a callback counter", name, s.labels))
	}
	return s.counter
}

// CounterFunc registers a counter whose value is read from fn at exposition
// time. Use it to surface an existing monotonic source (queue submit
// totals, cache hit counts) without double bookkeeping — /metricsz and any
// JSON stats endpoint then render the *same* number by construction.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...string) {
	s, fresh := r.register(name, help, kindCounter, labels, func(s *series) { s.counterFunc = fn })
	if !fresh {
		panic(fmt.Sprintf("metrics: %s%s already registered", name, s.labels))
	}
}

// Gauge returns the gauge for name and labels, registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s, _ := r.register(name, help, kindGauge, labels, func(s *series) { s.gauge = &Gauge{} })
	if s.gauge == nil {
		panic(fmt.Sprintf("metrics: %s%s is a callback gauge", name, s.labels))
	}
	return s.gauge
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time (queue depth, busy workers, cache bytes).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	s, fresh := r.register(name, help, kindGauge, labels, func(s *series) { s.gaugeFunc = fn })
	if !fresh {
		panic(fmt.Sprintf("metrics: %s%s already registered", name, s.labels))
	}
}

// Histogram returns the histogram for name and labels, registering it with
// the given bucket upper bounds on first use (nil buckets selects
// DefBuckets). Later calls ignore the bucket argument and return the
// existing instance.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	s, _ := r.register(name, help, kindHistogram, labels, func(s *series) { s.hist = newHistogram(buckets) })
	return s.hist
}

// WriteText renders every registered metric in the Prometheus text
// exposition format (families sorted by name, series by label block).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		r.mu.Lock()
		keys := append([]string(nil), f.order...)
		r.mu.Unlock()
		sort.Strings(keys)
		for _, lb := range keys {
			r.mu.Lock()
			s := f.series[lb]
			r.mu.Unlock()
			writeSeries(bw, f, s)
		}
	}
	return bw.Flush()
}

func writeSeries(w io.Writer, f *family, s *series) {
	switch f.kind {
	case kindCounter:
		v := uint64(0)
		if s.counterFunc != nil {
			v = s.counterFunc()
		} else {
			v = s.counter.Value()
		}
		fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, strconv.FormatUint(v, 10))
	case kindGauge:
		v := 0.0
		if s.gaugeFunc != nil {
			v = s.gaugeFunc()
		} else {
			v = s.gauge.Value()
		}
		fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(v))
	case kindHistogram:
		upper, cum := s.hist.Buckets()
		for i, le := range upper {
			fmt.Fprintf(w, "%s_bucket%s %s\n", f.name,
				withLabel(s.labels, "le", formatFloat(le)), strconv.FormatUint(cum[i], 10))
		}
		count := s.hist.Count()
		fmt.Fprintf(w, "%s_bucket%s %s\n", f.name,
			withLabel(s.labels, "le", "+Inf"), strconv.FormatUint(count, 10))
		fmt.Fprintf(w, "%s_sum%s %s\n", f.name, s.labels, formatFloat(s.hist.Sum()))
		fmt.Fprintf(w, "%s_count%s %s\n", f.name, s.labels, strconv.FormatUint(count, 10))
	}
}

// withLabel splices an extra label into an existing (possibly empty) label
// block — used for histogram le labels.
func withLabel(block, key, value string) string {
	extra := key + `="` + escapeLabel(value) + `"`
	if block == "" {
		return "{" + extra + "}"
	}
	return block[:len(block)-1] + "," + extra + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler rendering the registry (the /metricsz
// endpoint body).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w) // client gone: nothing useful to do
	})
}
