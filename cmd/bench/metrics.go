package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement as it appears in every JSON document the
// benchmark prints.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet accumulates named metrics and refuses duplicates, so a metric can
// never be emitted twice for one workload.
type metricSet map[string]metric

func (m metricSet) put(name string, v float64, unit string) {
	if _, dup := m[name]; dup {
		panic("bench: metric emitted twice: " + name)
	}
	m[name] = metric{Value: v, Unit: unit}
}

func (m metricSet) merge(o metricSet) {
	for k, v := range o {
		m.put(k, v.Value, v.Unit)
	}
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of a copy of xs (0 for an empty slice).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the linearly interpolated q-quantile of a copy of xs.
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

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// tail returns the highest order statistic that still has ten samples beyond
// it, and the percentile that is; with fewer than twenty samples no such
// percentile lies above the median and the median is returned, labelled 50.
func tail(ds []time.Duration) (time.Duration, int) {
	n := len(ds)
	if n < 20 {
		return medianDuration(ds), 50
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[n-11], 100 * (n - 10) / n
}

// spread is the run-to-run spread of one metric as a share of its median:
// the interquartile distance with four or more runs, the full range below
// that (quartiles of two or three values say nothing).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	med := median(xs)
	if med == 0 {
		return 0
	}
	lo, hi := quantile(xs, 0), quantile(xs, 1)
	if len(xs) >= 4 {
		lo, hi = quantile(xs, 0.25), quantile(xs, 0.75)
	}
	return math.Abs((hi - lo) / med)
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb * 1024 / 1e6, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}

// cpuSample is the machine's busy CPU time and this process's own, in seconds.
type cpuSample struct {
	busy float64 // all CPUs: user, nice, system, irq, softirq and steal
	own  float64
	wall time.Time
}

// sampleCPU reads /proc/stat (in USER_HZ = 100 ticks) and getrusage.
func sampleCPU() (cpuSample, error) {
	s := cpuSample{wall: time.Now()}
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s, fmt.Errorf("cpu sample: %w", err)
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return s, fmt.Errorf("cpu sample: unexpected /proc/stat line %q", line)
	}
	for _, i := range []int{1, 2, 3, 6, 7, 8} {
		ticks, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return s, fmt.Errorf("cpu sample: %w", err)
		}
		s.busy += ticks / 100
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return s, fmt.Errorf("cpu sample: %w", err)
	}
	s.own = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	return s, nil
}

// foreignCPUShare is the share of the machine's CPU capacity between two
// samples that went to anything but this process: other processes, the
// kernel on their behalf, and time the hypervisor took (steal).
func foreignCPUShare(a, b cpuSample) float64 {
	capacity := b.wall.Sub(a.wall).Seconds() * float64(runtime.NumCPU())
	return math.Max(0, ratio((b.busy-a.busy)-(b.own-a.own), capacity))
}

// newlineCountMBs is the stated ceiling: the file read block by block with a
// bare bytes.Count for '\n' and nothing else. Median of seven passes: the
// file was written moments ago, and a pass can collide with its write-back.
func newlineCountMBs(path string) (float64, error) {
	buf := make([]byte, 1<<20)
	var rates []float64
	for pass := 0; pass < 7; pass++ {
		f, err := os.Open(path)
		if err != nil {
			return 0, fmt.Errorf("ceiling: %w", err)
		}
		t0 := time.Now()
		var total, lines int64
		for {
			n, err := f.Read(buf)
			lines += int64(bytes.Count(buf[:n], []byte{'\n'}))
			total += int64(n)
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return 0, fmt.Errorf("ceiling: %w", err)
			}
		}
		d := time.Since(t0)
		f.Close()
		if lines == 0 || d <= 0 {
			return 0, fmt.Errorf("ceiling: %s has no rows", path)
		}
		rates = append(rates, float64(total)/1e6/d.Seconds())
	}
	return median(rates), nil
}
