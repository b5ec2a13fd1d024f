package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified), or 0 for no
// samples, so a run whose every job failed still reports a result.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sliceLen is the sub-window length: throughput is taken per slice of
// the measured window and reported as the median over slices, so a burst
// of host noise shorter than half the window does not move it.
const sliceLen = time.Second

// interval is one job's start and end, as offsets from the window start.
type interval struct{ start, end time.Duration }

// windowSlices cuts [0, span) into whole sliceLen slices (one slice when span
// is shorter).
func windowSlices(span time.Duration) []interval {
	n := int(span / sliceLen)
	if n == 0 {
		return []interval{{0, span}}
	}
	out := make([]interval, n)
	for i := range out {
		out[i] = interval{time.Duration(i) * sliceLen, time.Duration(i+1) * sliceLen}
	}
	return out
}

// sliceRates returns each slice's completion rate in jobs per second,
// counting every job in proportion to the share of its run inside the
// slice, so slices much shorter than a job still measure its rate.
func sliceRates(jobs []interval, span time.Duration) []float64 {
	if span <= 0 {
		return nil
	}
	sl := windowSlices(span)
	rates := make([]float64, len(sl))
	for _, j := range jobs {
		dur := float64(j.end - j.start)
		for i, s := range sl {
			if lo, hi := max(j.start, s.start), min(j.end, s.end); hi > lo && dur > 0 {
				rates[i] += float64(hi-lo) / dur
			}
		}
	}
	for i, s := range sl {
		rates[i] /= (s.end - s.start).Seconds()
	}
	return rates
}

// rssSampler records the process's resident set size while running. The
// kernel's VmHWM covers the whole process lifetime, set-up included, so
// the window's own peaks are sampled from /proc/self/statm instead.
type rssSampler struct {
	start   time.Time
	stop    chan struct{}
	done    sync.WaitGroup
	samples []int64
}

const rssInterval = 5 * time.Millisecond

// startRSS returns the heap to the OS (so set-up garbage does not count)
// and starts sampling.
func startRSS() *rssSampler {
	runtime.GC()
	debug.FreeOSMemory()
	s := &rssSampler{start: time.Now(), stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			s.samples = append(s.samples, residentBytes())
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the samples in MB.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	s.done.Wait()
	mb := make([]float64, len(s.samples))
	for i, b := range s.samples {
		mb[i] = float64(b) / (1 << 20)
	}
	return mb
}

var pageSize = int64(os.Getpagesize())

// residentBytes reads the current resident set size (0 if unavailable).
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * pageSize
}
