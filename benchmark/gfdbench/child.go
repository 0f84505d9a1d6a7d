package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// env locates the checkout and the files the benchmark leaves in it.
type env struct {
	root string // the checkout: holds go.mod of module repro
	bin  string // the built gfdreason
	work string // generated inputs and stores, one directory per group
	out  string // trace files
	p    int    // workers handed to -p: min(nproc, 4)
}

func newEnv(root string, p int) env {
	build := filepath.Join(root, ".bench_build")
	return env{
		root: root,
		bin:  filepath.Join(build, "bin", "gfdreason"),
		work: filepath.Join(build, "work"),
		out:  filepath.Join(root, "benchmark", "out"),
		p:    p,
	}
}

// buildReasoner compiles cmd/gfdreason from the checkout's source. The
// compiler cache lives under .bench_build as well (see run.sh), so a warm
// build is a fraction of a second and a cold one is paid once per checkout.
func (e env) buildReasoner() error {
	cmd := exec.Command("go", "build", "-o", e.bin, "./cmd/gfdreason")
	cmd.Dir = e.root
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/gfdreason: %v\n%s", err, out)
	}
	return nil
}

// childResult is what one gfdreason process cost and answered.
type childResult struct {
	stdout string
	exit   int
	wall   time.Duration
	cpu    time.Duration // user + system, from the child's rusage
	rssMB  float64       // peak resident set
}

// violations returns the violation lines of a `gfdreason check` answer (a
// clean graph prints one CLEAN line instead).
func (c childResult) violations() []string {
	var out []string
	for _, line := range strings.Split(c.stdout, "\n") {
		if strings.HasPrefix(line, "violation of ") {
			out = append(out, line)
		}
	}
	return out
}

// run executes one gfdreason process to completion: file in, answer out.
// A non-zero exit is an answer, not an error; only a process that could not
// be started or was killed is.
func (e env) run(args ...string) (childResult, error) {
	var stdout bytes.Buffer
	cmd := exec.Command(e.bin, args...)
	cmd.Stdout = &stdout
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childResult{}, fmt.Errorf("gfdreason %s: %w", strings.Join(args, " "), err)
	}
	stop := make(chan struct{})
	peak := make(chan float64, 1)
	go func() { peak <- watchRSS(cmd.Process.Pid, stop) }()
	err := cmd.Wait()
	res := childResult{wall: time.Since(start), stdout: stdout.String()}
	close(stop)
	res.rssMB = <-peak
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		return res, fmt.Errorf("gfdreason %s: %w", strings.Join(args, " "), err)
	}
	st := cmd.ProcessState
	res.exit = st.ExitCode()
	if res.exit < 0 {
		return res, fmt.Errorf("gfdreason %s: %v", strings.Join(args, " "), st)
	}
	res.cpu = st.UserTime() + st.SystemTime()
	return res, nil
}

// rssPoll is how often a running child's peak RSS is read.
const rssPoll = 4 * time.Millisecond

// watchRSS polls the child's VmHWM until stop closes and returns the last
// (highest) reading in MB. The rusage a parent gets at wait cannot be used:
// os/exec starts children with CLONE_VM, and at exec Linux folds the
// spawning process's own high-water mark into the child's ru_maxrss, so a
// child smaller than this harness would report the harness. VmHWM belongs to
// the child's post-exec address space alone; the reading misses at most the
// last poll interval of growth.
func watchRSS(pid int, stop <-chan struct{}) float64 {
	path := fmt.Sprintf("/proc/%d/status", pid)
	peakKB := 0.0
	tick := time.NewTicker(rssPoll)
	defer tick.Stop()
	for {
		if data, err := os.ReadFile(path); err == nil {
			if i := bytes.Index(data, []byte("VmHWM:")); i >= 0 {
				var kb float64
				if _, err := fmt.Sscanf(string(data[i+len("VmHWM:"):]), "%f", &kb); err == nil && kb > peakKB {
					peakKB = kb
				}
			}
		}
		select {
		case <-stop:
			return peakKB / 1024
		case <-tick.C:
		}
	}
}

// selfCPU is this process's user + system time so far: the in-process writer
// loop of store-lifecycle is charged by the difference around it.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
