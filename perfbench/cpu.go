package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// The CPU-time figures below are what the kernel charges to the system's
// own processes. It charges a task only for time it ran, so time the
// hypervisor took from a virtual CPU (steal) is left out: on a shared host
// they hold still while wall-clock times swing with the neighbours' load.

// cpuOf returns the CPU time the processes have used so far, summed over
// all their threads (/proc/<pid>/task/<tid>/schedstat, in nanoseconds).
func cpuOf(procs []*exec.Cmd) (time.Duration, error) {
	var total time.Duration
	for _, cmd := range procs {
		dir := filepath.Join("/proc", strconv.Itoa(cmd.Process.Pid), "task")
		tasks, err := os.ReadDir(dir)
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			raw, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
			if err != nil {
				continue // the thread exited between the listing and the read
			}
			field, _, _ := bytes.Cut(raw, []byte(" "))
			ns, err := strconv.ParseInt(string(field), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
			}
			total += time.Duration(ns)
		}
	}
	return total, nil
}

// selfCPU returns the user and system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal reads the machine-wide CPU time counters of /proc/stat: the
// time taken from this machine's virtual CPUs by the hypervisor, and all
// time, in clock ticks.
func hostSteal() (steal, all float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	fields := bytes.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(string(f), 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			all += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, all
}
