package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// processStart approximates the process start for setup_s: package
// initialization runs before main, a few milliseconds after exec.
var processStart = time.Now()

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	at          time.Time
	cpuSelf     time.Duration
	cpuChildren time.Duration // children already waited for
	allocBytes  uint64
	allocObjs   uint64
	gcCycles    uint32
	gcPauseNs   uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var self, ch syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self) // cannot fail for RUSAGE_SELF/CHILDREN
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ch)
	return usage{
		at:          time.Now(),
		cpuSelf:     tv(self.Utime) + tv(self.Stime),
		cpuChildren: tv(ch.Utime) + tv(ch.Stime),
		allocBytes:  ms.TotalAlloc,
		allocObjs:   ms.Mallocs,
		gcCycles:    ms.NumGC,
		gcPauseNs:   ms.PauseTotalNs,
	}
}

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

// spent is the resource use between two readings.
type spent struct {
	wall        time.Duration
	cpuSelf     time.Duration
	cpuChildren time.Duration
	allocBytes  uint64
	allocObjs   uint64
	gcCycles    uint32
	gcPause     time.Duration
}

// add accumulates another interval's use.
func (s *spent) add(o spent) {
	s.wall += o.wall
	s.cpuSelf += o.cpuSelf
	s.cpuChildren += o.cpuChildren
	s.allocBytes += o.allocBytes
	s.allocObjs += o.allocObjs
	s.gcCycles += o.gcCycles
	s.gcPause += o.gcPause
}

func (u usage) since(prev usage) spent {
	return spent{
		wall:        u.at.Sub(prev.at),
		cpuSelf:     u.cpuSelf - prev.cpuSelf,
		cpuChildren: u.cpuChildren - prev.cpuChildren,
		allocBytes:  u.allocBytes - prev.allocBytes,
		allocObjs:   u.allocObjs - prev.allocObjs,
		gcCycles:    u.gcCycles - prev.gcCycles,
		gcPause:     time.Duration(u.gcPauseNs - prev.gcPauseNs),
	}
}

// peakRSSMB is the benchmark process's maximum resident set, plus that of
// its largest waited-for child when children is set (the shard workers).
func peakRSSMB(children bool) float64 {
	var self, ch syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	kb := self.Maxrss // kilobytes on Linux
	if children {
		_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ch)
		kb += ch.Maxrss
	}
	return float64(kb) / 1024
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed call into a layer, recorded from the benchmark side.
// Spans of one job or campaign share Trace; Parent links a call to the
// span that caused it (0 for a root).
type span struct {
	Trace  string `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps a traced run's spans in memory until the run ends. A nil
// recorder records nothing, which is how untraced runs stay unwrapped in
// cost: every method is a no-op on nil.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	trace int64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newTrace mints a trace identifier for one job or campaign.
func (r *recorder) newTrace(kind string) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trace++
	return fmt.Sprintf("%s-%d", kind, r.trace)
}

// newID reserves a span ID, so a parent's ID can be handed to children
// before the parent ends.
func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a finished span under a reserved (or, with id 0, fresh) ID.
func (r *recorder) add(id int64, trace string, parent int64, name string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	if id == 0 {
		id = r.newID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	r.mu.Unlock()
	return id
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.all() {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTime is a span name's total and self time: a span's self time is its
// duration minus the part of it that its children cover.
type selfTime struct {
	count       int
	total, self int64
}

func selfTimes(spans []span) map[string]selfTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]selfTime{}
	for _, s := range spans {
		st := out[s.Name]
		st.count++
		st.total += s.dur()
		st.self += s.dur() - covered(children[s.ID], s.Start, s.End)
		out[s.Name] = st
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of spans.
func covered(spans []span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var tot, end int64 = 0, lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		tot += v.b - v.a
		end = v.b
	}
	return tot
}
