package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"powercap/internal/workload"
)

// procSet tracks every daemon the benchmark started, so that any exit
// path can kill and reap them all.
type procSet struct {
	mu     sync.Mutex
	procs  map[*exec.Cmd]bool
	closed bool
}

var daemons = procSet{procs: make(map[*exec.Cmd]bool)}

// start launches cmd in its own process group with a parent-death signal,
// so that the daemon dies with the benchmark even if the benchmark is
// killed outright.
func (s *procSet) start(cmd *exec.Cmd) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("benchmark is shutting down")
	}
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	s.procs[cmd] = true
	return nil
}

// stop kills cmd's process group and waits for the daemon to exit.
func (s *procSet) stop(cmd *exec.Cmd) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopLocked(cmd)
}

func (s *procSet) stopLocked(cmd *exec.Cmd) {
	if !s.procs[cmd] {
		return
	}
	delete(s.procs, cmd)
	_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	_ = cmd.Wait() // the error is the kill itself
}

// killAll stops every daemon and refuses later starts.
func (s *procSet) killAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for cmd := range s.procs {
		s.stopLocked(cmd)
	}
}

// liveDibads returns the pids of running processes named dibad.
func liveDibads() ([]int, error) {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil, err
	}
	var pids []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		comm, err := os.ReadFile(filepath.Join("/proc", e.Name(), "comm"))
		if err != nil || strings.TrimSpace(string(comm)) != "dibad" {
			continue
		}
		// A zombie has already exited; only its parent's reap is pending.
		stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		if i := bytes.LastIndexByte(stat, ')'); i >= 0 && i+2 < len(stat) && stat[i+2] == 'Z' {
			continue
		}
		pids = append(pids, pid)
	}
	return pids, nil
}

// ringSpec describes one flat ring of dibad processes.
type ringSpec struct {
	seed          int64
	budgetW       float64       // initial cluster budget
	names         []string      // per-node Table 4.1 workload
	roundInterval time.Duration // 0 runs rounds back to back
}

// dibadGatherTimeout turns on the daemons' failure detector, whose
// per-peer round-trip estimators /v1/health serves. It is far above any
// round time, so no healthy peer is ever suspected.
const dibadGatherTimeout = "10s"

// ring is a running flat ring of dibad processes and what the benchmark
// knows about it.
type ring struct {
	api    []string // control-plane base URLs, by node id
	procs  []*exec.Cmd
	dir    string
	us     []workload.Utility // the daemons' utilities, by node id
	budget float64            // the budget last posted to every daemon
}

// startRing launches one dibad per name on loopback. It returns once
// every process has started; readiness is the caller's to poll.
func startRing(b *bench, spec ringSpec, tag string) (*ring, error) {
	if b.dibad == "" {
		return nil, errors.New("the live workloads need -dibad")
	}
	n := len(spec.names)
	ports, err := freePorts(2 * n)
	if err != nil {
		return nil, err
	}
	r := &ring{dir: filepath.Join(b.workDir, tag)}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	var peers strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&peers, "%d %s\n", i, ports[i])
		r.api = append(r.api, "http://"+ports[n+i])
	}
	peersPath := filepath.Join(r.dir, "peers.txt")
	if err := os.WriteFile(peersPath, []byte(peers.String()), 0o644); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		args := []string{
			"-id", strconv.Itoa(i), "-peers", peersPath,
			"-budget", strconv.FormatFloat(spec.budgetW, 'g', -1, 64),
			"-workload", spec.names[i], "-seed", strconv.FormatInt(spec.seed, 10),
			"-rounds", "2000000000", "-connect-timeout", "30s",
			"-gather-timeout", dibadGatherTimeout,
			"-api", ports[n+i],
		}
		if spec.roundInterval > 0 {
			args = append(args, "-round-interval", spec.roundInterval.String())
		}
		logf, err := os.Create(filepath.Join(r.dir, fmt.Sprintf("dibad-%d.log", i)))
		if err != nil {
			r.stop()
			return nil, err
		}
		cmd := exec.Command(b.dibad, args...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		cmd.Stdout, cmd.Stderr = logf, logf
		err = daemons.start(cmd)
		logf.Close() // the child holds its own descriptor
		if err != nil {
			r.stop()
			return nil, fmt.Errorf("starting dibad %d: %w", i, err)
		}
		r.procs = append(r.procs, cmd)
	}
	return r, nil
}

// stop kills and reaps every daemon of the cluster.
func (r *ring) stop() {
	for _, cmd := range r.procs {
		daemons.stop(cmd)
	}
	r.procs = nil
}

// logTail returns the last lines of daemon i's log, for error reports.
func (r *ring) logTail(i int) string {
	data, _ := os.ReadFile(filepath.Join(r.dir, fmt.Sprintf("dibad-%d.log", i)))
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	return strings.Join(lines[max(0, len(lines)-5):], "\n")
}

// freePorts reserves k distinct loopback ports by listening on them all at
// once, then releases them for the daemons to bind.
func freePorts(k int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	var out []string
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		out = append(out, ln.Addr().String())
	}
	return out, nil
}
