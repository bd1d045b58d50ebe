//go:build linux

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// parseStatCPU extracts utime+stime from the contents of /proc/<pid>/stat.
// The command name (field 2) may contain spaces and parentheses, so fields
// are counted from the last ')'.
func parseStatCPU(stat []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// statusField returns the first integer of a "Key:\t<n> ..." line of a
// /proc status file.
func statusField(status []byte, key string) (uint64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			break
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s field", key)
}

// procCPU reads the CPU time a process has consumed so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// procPeakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := statusField(b, "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// procCtxSwitches sums voluntary and involuntary context switches over the
// process's threads: /proc/<pid>/status alone counts only the main thread,
// and a Go server does its work on the others.
func procCtxSwitches(pid int) (uint64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("proc: no tasks for pid %d", pid)
	}
	var total uint64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between Glob and ReadFile
		}
		for _, key := range []string{"voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"} {
			n, err := statusField(b, key)
			if err != nil {
				return 0, err
			}
			total += n
		}
	}
	return total, nil
}
