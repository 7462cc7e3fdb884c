package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many ops the reported tail percentile must leave
// above it, so the tail is a measured value and not a single outlier.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentile returns the highest whole percentile p in [1, 99]
// whose nearest-rank order statistic leaves at least minBeyond of n
// samples above it, and false when n is too small for any.
func tailPercentile(n, minBeyond int) (int, bool) {
	for p := 99; p >= 1; p-- {
		if n-nearestRank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// nearestRank is the 1-based rank ⌈p·n/100⌉ of the p-th percentile.
func nearestRank(p, n int) int {
	k := (p*n + 99) / 100
	if k < 1 {
		k = 1
	}
	return k
}

// tail reports the tail of xs: the value at tailPercentile, or the
// median (percentile 50) when fewer than minBeyond+1 samples exist.
func tail(xs []float64) (value float64, percentile int) {
	p, ok := tailPercentile(len(xs), minBeyond)
	if !ok {
		return median(xs), 50
	}
	s := sortedCopy(xs)
	return s[nearestRank(p, len(s))-1], p
}

// validName reports whether s is a legal metric or workload name: it
// starts with a letter or digit and has at most 64 characters from
// [A-Za-z0-9_.-].
func validName(s string) bool {
	if s == "" || len(s) > 64 || !isAlnum(s[0]) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; !isAlnum(c) && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// validUnit reports whether s is a legal unit: 1 to 16 characters from
// [A-Za-z0-9_/%.-].
func validUnit(s string) bool {
	if s == "" || len(s) > 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; !isAlnum(c) && !strings.ContainsRune("_/%.-", rune(c)) {
			return false
		}
	}
	return true
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// heapAllocBytes is the process's cumulative Go heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the process's resident-memory high-water mark to
// its current resident size. Where the kernel refuses, peakRSSMB keeps
// reporting the process's lifetime peak.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB is the process's resident-memory high-water mark (VmHWM)
// in MB, falling back to getrusage's ru_maxrss (KiB on Linux).
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
