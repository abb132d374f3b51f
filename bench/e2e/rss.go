package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// resetPeakRSS resets the process's VmHWM to its current RSS (Linux: "5"
// into clear_refs), so the peak read after a window is that window's. It
// reports whether the kernel allowed it; the report states that, because
// without the reset peak_rss_mb also covers the generator and the
// reference session.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB reads VmHWM, the process's peak resident set, in MiB; 0 when
// /proc is not available.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
