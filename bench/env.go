package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// benchProcs is GOMAXPROCS for the server and the generator alike, and the
// number of goroutines and connections that issue load: one, on the one CPU
// the harness confines itself and its children to (pin.go). With server and
// generator spread over the two virtual CPUs of the machine this was written
// on, four and more runnable threads on two processors measured the
// scheduler — a one-connection request loop ran at 11 000 or 23 000 requests
// a second from one second to the next, depending on whether its two ends
// shared a CPU — and two busy hyper-threads slowed each other. GOGC is left
// alone: the production default is what a user runs.
const benchProcs = 1

// privateNSEnv is set by run.sh when it has put the harness in a private
// mount namespace, which is what allows mounting a tmpfs that exists only
// for this process tree.
const privateNSEnv = "LIGHTOR_BENCH_PRIVATE_NS"

// env is where a run happens: directories, binaries and the state of the
// machine, all of which go into the output so a surprising number can be
// traced to a surprising environment.
type env struct {
	root      string // the checkout
	outDir    string // bench/out: traces and server logs
	dataRoot  string // parent of every -data-dir and corpus dir
	serverBin string
	layersBin string

	tmpfs      bool    // dataRoot is memory-backed
	nproc      int     // CPUs the harness may run on
	cpu        int     // the one it has confined itself and its children to
	loadavg1   float64 // 1-minute load average before the run
	busyBefore float64 // share of the machine's CPU busy just before the run
}

// disturbed reports whether something else was using the machine when the
// run started. The 1-minute load average alone cannot tell: back-to-back
// benchmark runs keep it high on their own, so the decision is taken from
// a direct sample of CPU busy time and the load average is printed beside
// it.
func (e *env) disturbed() bool { return e.busyBefore > 0.25 }

func (e *env) header() string {
	return fmt.Sprintf("env.nproc=%d env.cpu=%d env.gomaxprocs=%d env.loadavg1=%.2f env.busy_before=%.2f env.disturbed=%t env.tmpfs=%t go_version=%s",
		e.nproc, e.cpu, benchProcs, e.loadavg1, e.busyBefore, e.disturbed(), e.tmpfs, runtime.Version())
}

// findRoot walks up from the working directory to the checkout, the
// directory holding BENCHMARK.json and the lightor module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in this directory or any parent: run from the checkout")
		}
		dir = parent
	}
}

// newEnv prepares the directories, builds the binaries under test and
// samples the machine. Everything it writes stays inside the checkout.
func newEnv(root string, cpu, nproc int) (*env, error) {
	build := filepath.Join(root, ".bench_build")
	e := &env{
		root:      root,
		outDir:    filepath.Join(root, "bench", "out"),
		dataRoot:  filepath.Join(build, "data"),
		serverBin: filepath.Join(build, "bin", "lightor-server"),
		layersBin: filepath.Join(build, "bin", "layers"),
		nproc:     nproc,
		cpu:       cpu,
	}
	for _, d := range []string{e.outDir, e.dataRoot, filepath.Dir(e.serverBin)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if err := e.buildBinaries(); err != nil {
		return nil, err
	}
	// A disk's fsync time is the disk's, not ours (on the VM this was
	// written on it swings 1–6 ms between two-second windows), so the
	// durable workloads keep their data on a tmpfs. It is mounted over a
	// directory of the checkout inside a private mount namespace: nothing
	// outside the checkout is written and the mount vanishes with the
	// process tree.
	if os.Getenv(privateNSEnv) != "" {
		if err := syscall.Mount("tmpfs", e.dataRoot, "tmpfs", 0, "size=4g"); err == nil {
			e.tmpfs = true
		}
	}
	if !e.tmpfs {
		// Left-overs of a killed run would otherwise be recovered as state.
		if err := clearDir(e.dataRoot); err != nil {
			return nil, err
		}
	}
	e.loadavg1 = readLoadavg1()
	e.busyBefore = sampleBusy(250 * time.Millisecond)
	return e, nil
}

// cleanup removes what the run left in the data root.
func (e *env) cleanup() {
	if e.tmpfs {
		syscall.Unmount(e.dataRoot, 0)
		return
	}
	clearDir(e.dataRoot)
}

func clearDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if err := os.RemoveAll(filepath.Join(dir, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

// buildBinaries compiles the server and the layer probes from the checkout.
// It runs before any timer starts; with a warm build cache it costs a few
// hundred milliseconds per run.
func (e *env) buildBinaries() error {
	for _, b := range []struct{ dir, pkg, out string }{
		{e.root, "./cmd/lightor-server", e.serverBin},
		{filepath.Join(e.root, "bench"), "./layers", e.layersBin},
	} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go build %s: %v\n%s", b.pkg, err, out)
		}
	}
	return nil
}

func readLoadavg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// sampleBusy returns the share of the whole machine's CPU time that was
// not idle over d, from /proc/stat.
func sampleBusy(d time.Duration) float64 {
	read := func() (busy, total float64) {
		b, err := os.ReadFile("/proc/stat")
		if err != nil {
			return 0, 0
		}
		line, _, _ := strings.Cut(string(b), "\n")
		f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
		for i, s := range f[1:] {
			v, _ := strconv.ParseFloat(s, 64)
			total += v
			if i != 3 && i != 4 {
				busy += v
			}
		}
		return busy, total
	}
	b0, t0 := read()
	time.Sleep(d)
	b1, t1 := read()
	if t1 <= t0 {
		return 0
	}
	return (b1 - b0) / (t1 - t0)
}
