package bench

import (
	"os"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostReading is a point-in-time reading of the process counters a
// pass is measured by; the difference of two readings is the pass's
// cost.
type hostReading struct {
	wall       time.Time
	cpu        float64 // user+sys seconds (getrusage)
	allocBytes uint64
	allocObjs  uint64
	gcCPU      float64 // runtime estimate of GC CPU seconds
	gcCycles   uint64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readHost() hostReading {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return hostReading{
		wall:       time.Now(),
		cpu:        tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		allocBytes: samples[0].Value.Uint64(),
		allocObjs:  samples[1].Value.Uint64(),
		gcCPU:      samples[2].Value.Float64(),
		gcCycles:   samples[3].Value.Uint64(),
	}
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// startPass brings the process to the same state before every pass: a
// full GC with the freed heap returned to the OS, as in a fresh process,
// and the kernel's peak-RSS mark reset to the current RSS, so that
// passPeakRSS covers one pass. Without the reset (no procfs) the
// peak is the process's since it started.
func startPass() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // passPeakRSS falls back below
}

// passPeakRSS returns the peak resident set size since startPass, in
// bytes: VmHWM from /proc/self/status, else getrusage's maxrss.
func passPeakRSS() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) * 1024                // Linux reports KiB
}

// heapAllocBytes reads the cumulative heap allocation counter alone,
// for the allocation charged to engine run calls.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
