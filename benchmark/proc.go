package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU is the user+system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// times. It is 100 on every Linux port Go supports.
const clockTick = 10 * time.Millisecond

// pidCPU is the user+system CPU time of another process, read from
// /proc/<pid>/stat (fields 14 and 15, counted after the parenthesised
// command name, which may itself contain spaces).
func pidCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command name", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state), so utime and stime are f[11] and f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad times %q %q", pid, f[11], f[12])
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSSMB is the VmHWM (resident set high-water mark) of a process
// in MB; pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: VmHWM %q", path, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// hostShape is what a wall-clock number depends on besides the code.
type hostShape struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func thisHost() hostShape {
	h := hostShape{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
