package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs, sorting xs in place.
// It returns 0 for no samples.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(xs, func(i, j int) bool { return xs[i] < xs[j] }) {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	}
	i := int(q*float64(len(xs))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return float64(xs[i])
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const (
	nsPerUS = 1e3
	nsPerMS = 1e6
)

// usage is one reading of the process's CPU time and Go allocator.
type usage struct {
	cpu                   time.Duration
	mallocs, bytes, numGC uint64
}

// readUsage reads CPU time (getrusage) and the allocator counters.
func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{cpu: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc, numGC: uint64(ms.NumGC)}
}

// hostInfo is the fingerprint printed with every run: adapt-durable is
// bound by fsync, so the journal directory's filesystem matters as much as
// the CPU.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	JournalFS  string `json:"journal_fs"`
}

func fingerprint(journalDir string) hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		JournalFS:  fsType(journalDir),
	}
}

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

// fsMagic names the statfs magic numbers of common Linux filesystems.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return "unknown"
}
