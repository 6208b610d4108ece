package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// fingerprint describes the host and the workload's working set, so that
// numbers from different machines are never compared unknowingly.
func fingerprint(r *result) []string {
	l2, l3 := cacheBytes(2), cacheBytes(3)
	lines := []string{
		fmt.Sprintf("host %s %s/%s GOMAXPROCS %d NumCPU %d cpu %q L2 %s per core L3 %s",
			runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(),
			cpuModel(), mib(l2), mib(l3)),
		fmt.Sprintf("parallel layer not exercised: optimizer calls run with Workers=1, the speculative Vts bisection needs >= 3 workers (NumCPU %d), serve executors = %d",
			runtime.NumCPU(), serveExecutors),
	}
	ws := fmt.Sprintf("working set: largest circuit %d logic gates", r.gates)
	if r.workingSet > 0 {
		ws += fmt.Sprintf(", %.2f MB live after elaboration", r.workingSet/1e6)
		if l2 > 0 {
			ws += fmt.Sprintf(" = %.2fx L2", r.workingSet/float64(l2))
		}
	}
	return append(lines, ws)
}

// cpuModel is the first "model name" in /proc/cpuinfo.
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

// cacheBytes is the size of one CPU 0 data or unified cache at level, from
// sysfs; 0 when unknown.
func cacheBytes(level int) int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		if read(filepath.Join(d, "level")) != strconv.Itoa(level) || read(filepath.Join(d, "type")) == "Instruction" {
			continue
		}
		s := read(filepath.Join(d, "size"))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return n * mult
		}
	}
	return 0
}

func read(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

func mib(b int64) string {
	if b == 0 {
		return "unknown"
	}
	return fmt.Sprintf("%.0f MiB", float64(b)/(1<<20))
}
