package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildBinaries compiles perfbench and the daemon into dir.
func buildBinaries(t *testing.T, dir string) (perfbench, dibad string) {
	t.Helper()
	perfbench, dibad = filepath.Join(dir, "perfbench"), filepath.Join(dir, "dibad")
	for _, args := range [][]string{{"build", "-o", perfbench, "."}, {"build", "-o", dibad, "powercap/cmd/dibad"}} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
	return perfbench, dibad
}

// running returns the pids of live processes executing bin.
func running(t *testing.T, bin string) []int {
	t.Helper()
	pids, err := liveDibads()
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for _, pid := range pids {
		if exe, err := os.Readlink(filepath.Join("/proc", strconv.Itoa(pid), "exe")); err == nil && exe == bin {
			out = append(out, pid)
		}
	}
	return out
}

// waitFor polls cond every 20 ms until it holds or limit passes.
func waitFor(limit time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(limit); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// TestNoDibadSurvivesKilledBenchmark kills perfbench mid-workload, with the
// daemons running, by each of the ways a run can be cut short, and checks
// that no daemon outlives it and that no result is printed.
func TestNoDibadSurvivesKilledBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns dibad clusters")
	}
	perfbench, dibad := buildBinaries(t, t.TempDir())
	for _, sig := range []syscall.Signal{syscall.SIGKILL, syscall.SIGTERM, syscall.SIGINT} {
		t.Run(sig.String(), func(t *testing.T) {
			var stdout bytes.Buffer
			cmd := exec.Command(perfbench, "-workload", "budget-step", "-seconds", "60", "-dibad", dibad, "-out", t.TempDir())
			cmd.Stdout = &stdout
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			if !waitFor(30*time.Second, func() bool { return len(running(t, dibad)) == stepNodes }) {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatalf("perfbench never had %d daemons running", stepNodes)
			}
			// Let the run get past set-up into its budget steps.
			time.Sleep(time.Second)
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			err := cmd.Wait()
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("perfbench exited with %v after %v; want a failure", err, sig)
			}
			if sig != syscall.SIGKILL && exit.ExitCode() != 128+int(sig) {
				t.Errorf("exit code %d after %v, want %d", exit.ExitCode(), sig, 128+int(sig))
			}
			if strings.Contains(stdout.String(), `"correct"`) {
				t.Errorf("a cut run printed a result:\n%s", stdout.String())
			}
			if !waitFor(5*time.Second, func() bool { return len(running(t, dibad)) == 0 }) {
				pids := running(t, dibad)
				for _, pid := range pids {
					syscall.Kill(pid, syscall.SIGKILL)
				}
				t.Fatalf("daemons %v survived perfbench's %v", pids, sig)
			}
		})
	}
}

// TestStrayDibadFailsSetup checks that a daemon left over from an earlier
// run stops the benchmark before it measures anything.
func TestStrayDibadFailsSetup(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns dibad processes")
	}
	dir := t.TempDir()
	perfbench, dibad := buildBinaries(t, dir)
	// A daemon waiting for peers that never come stays alive for its
	// connect timeout.
	peers := filepath.Join(dir, "peers.txt")
	if err := os.WriteFile(peers, []byte("0 127.0.0.1:1\n1 127.0.0.1:2\n2 127.0.0.1:0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stray := exec.Command(dibad, "-id", "2", "-peers", peers, "-budget", "500", "-connect-timeout", "60s")
	if err := stray.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		stray.Process.Kill()
		stray.Wait()
	}()
	if !waitFor(5*time.Second, func() bool { return len(running(t, dibad)) == 1 }) {
		t.Fatal("the stray daemon did not start")
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(perfbench, "-workload", "api-read", "-seconds", "5", "-dibad", dibad, "-out", t.TempDir())
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if err == nil || stdout.Len() != 0 {
		t.Fatalf("perfbench ran beside a stray dibad: err %v\n%s", err, stdout.String())
	}
	if !strings.Contains(stderr.String(), "still alive") {
		t.Errorf("stderr does not name the stray daemon:\n%s", stderr.String())
	}
	if got := running(t, dibad); len(got) != 1 {
		t.Errorf("dibad processes %v, want only the stray", got)
	}
}
