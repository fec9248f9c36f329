package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Process and host counters read from /proc and getrusage.

// parseVmHWM extracts the peak resident set size in kB from the text
// of /proc/<pid>/status.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("no VmHWM line in status")
}

// peakRSSMB returns this process's peak RSS in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(string(data))
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// cpuTicks is the aggregate "cpu" line of /proc/stat: total jiffies
// (user through steal; guest time is already inside user) and the
// steal share of them.
type cpuTicks struct {
	Total, Steal uint64
}

// parseCPUTicks reads the aggregate cpu line of /proc/stat text.
func parseCPUTicks(stat string) (cpuTicks, error) {
	for _, line := range strings.Split(stat, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		// user nice system idle iowait irq softirq steal [guest guest_nice]
		if len(f) < 9 {
			return cpuTicks{}, fmt.Errorf("short cpu line %q", line)
		}
		var t cpuTicks
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(f[i], 10, 64)
			if err != nil {
				return cpuTicks{}, fmt.Errorf("cpu field %d: %w", i, err)
			}
			t.Total += v
			if i == 8 {
				t.Steal = v
			}
		}
		return t, nil
	}
	return cpuTicks{}, fmt.Errorf("no aggregate cpu line in stat")
}

// readCPUTicks samples /proc/stat; a host without it reads as zero.
func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	t, err := parseCPUTicks(string(data))
	if err != nil {
		return cpuTicks{}
	}
	return t
}

// stealShare is the host steal share between two samples.
func stealShare(a, b cpuTicks) float64 {
	if b.Total <= a.Total {
		return 0
	}
	return float64(b.Steal-a.Steal) / float64(b.Total-a.Total)
}

// processCPU returns this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuModel names the host CPU from /proc/cpuinfo.
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

// mallocs returns the cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
