package main

import (
	"bufio"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The hosts this benchmark runs on are shared, and their speed is not ours
// to fix. Measured here with nothing else running: two threads of P-256
// verifications from the standard library swing between 13k and 23k per
// second, in episodes of half a second to a minute, and a single thread
// runs a third slower next to an idle CPU than next to a busy one. A wall
// clock on such a host measures the neighbours.
//
// So a run carries its own yardstick. It starts one child process per CPU
// that verifies the same P-256 signature over and over at idle priority
// (SCHED_IDLE, else nice 19): it takes only cycles nothing else wants, it
// keeps the CPUs from clocking down in the workloads' idle gaps, and every
// few milliseconds of its own CPU time it reports how many verifications it
// completed. Verifications per CPU-second of the spinners is the speed the
// host ran at, while the workload ran, on the CPUs the workload ran on;
// signature verification is also what the workloads spend most of their own
// time in. The end-to-end metrics are reported at refSpeed: a rate measured
// over an interval is multiplied by refSpeed over the host's speed in that
// interval, a CPU-bound time divided by it. The yardstick's code is the Go
// standard library's, so no change to the repo moves it.

const (
	warmUp      = 2 * time.Second
	schedIdle   = 5     // SCHED_IDLE of sched_setscheduler(2)
	threadClock = 3     // CLOCK_THREAD_CPUTIME_ID of clock_gettime(2)
	refSpeed    = 10000 // verifications per CPU-second the metrics are reported at
	minSpinCPU  = 5 * time.Millisecond
)

// speedSample is one report of a spinner: verifications and CPU time so far.
type speedSample struct {
	At     time.Time
	Count  float64
	CPUSec float64
}

// hostMeter collects the spinners' reports.
type hostMeter struct {
	mu      sync.Mutex
	samples [][]speedSample // guarded by mu; per spinner, in time order
	stop    func()
}

// noMeter is the meter of a process without spinners (the tests): it knows
// no speed, and every metric stays as measured.
var noMeter = &hostMeter{stop: func() {}}

// startHostMeter starts the spinners and lets the CPUs warm up. stop ends
// them and waits until each has ended; a spinner also ends by itself when
// this process dies, because its standard input closes.
func startHostMeter() (*hostMeter, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	n := runtime.NumCPU()
	m := &hostMeter{samples: make([][]speedSample, n)}
	var cmds []*exec.Cmd
	var stdins []io.Closer
	var readers sync.WaitGroup
	m.stop = func() {
		for _, c := range stdins {
			c.Close()
		}
		readers.Wait()
		for _, c := range cmds {
			c.Wait() // bmaclint:allow errdiscard (a spinner has no result; waiting for its end is the point)
		}
	}
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-spin")
		stdin, err := cmd.StdinPipe()
		if err != nil {
			m.stop()
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			m.stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			m.stop()
			return nil, err
		}
		cmds, stdins = append(cmds, cmd), append(stdins, stdin)
		readers.Add(1)
		go func(i int) {
			defer readers.Done()
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				var count, cpuNS float64
				if _, err := fmt.Sscan(sc.Text(), &count, &cpuNS); err != nil {
					continue
				}
				m.mu.Lock()
				m.samples[i] = append(m.samples[i], speedSample{At: time.Now(), Count: count, CPUSec: cpuNS / 1e9})
				m.mu.Unlock()
			}
		}(i)
	}
	time.Sleep(warmUp)
	return m, nil
}

// speed returns the host's speed between from and to in verifications per
// CPU-second, over all spinners; ok is false (and v 0) when the spinners ran
// for less than minSpinCPU in that interval, too little to count
// verifications in, or when there are no spinners.
func (m *hostMeter) speed(from, to time.Time) (v float64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var count, cpu float64
	for _, s := range m.samples {
		i := sort.Search(len(s), func(i int) bool { return !s[i].At.Before(from) })
		j := sort.Search(len(s), func(j int) bool { return s[j].At.After(to) }) - 1
		if i < j {
			count += s[j].Count - s[i].Count
			cpu += s[j].CPUSec - s[i].CPUSec
		}
	}
	if cpu < minSpinCPU.Seconds() {
		return 0, false
	}
	return count / cpu, true
}

// factor is what a rate measured between from and to is multiplied by, and a
// CPU-bound duration divided by, to report it at refSpeed. A workload that
// keeps every CPU busy leaves the spinners next to nothing, so where the
// interval itself holds too little of their time it is widened on either
// side, step by step; without spinners the factor is 1.
func (m *hostMeter) factor(from, to time.Time) float64 {
	for _, pad := range []time.Duration{0, 500 * time.Millisecond, 2 * time.Second, 10 * time.Second} {
		if v, ok := m.speed(from.Add(-pad), to.Add(pad)); ok {
			return refSpeed / v
		}
	}
	return 1
}

// spin is a spinner's main: one thread at the lowest priority the kernel
// offers, verifying one signature over and over, until standard input
// closes. Every reportEvery of its own CPU time it writes one line: the
// verifications done and the thread's CPU time in nanoseconds.
func spin() {
	const reportEvery = 5 * time.Millisecond
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread() // scheduling policy and CPU clock belong to the thread
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19) // bmaclint:allow errdiscard (best effort: a spinner at normal priority still ends with its parent)
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		os.Exit(1)
	}
	digest := sha256.Sum256([]byte("bmac benchmark yardstick"))
	sig, err := ecdsa.SignASN1(rand.Reader, key, digest[:])
	if err != nil {
		os.Exit(1)
	}
	done := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin) // bmaclint:allow errdiscard (any end of input ends the spinner)
		close(done)
	}()
	out := bufio.NewWriter(os.Stdout)
	count, reported := 0, threadCPU()
	for {
		select {
		case <-done:
			return
		default:
		}
		if !ecdsa.VerifyASN1(&key.PublicKey, digest[:], sig) {
			os.Exit(1)
		}
		count++
		if cpu := threadCPU(); cpu-reported >= reportEvery {
			reported = cpu
			fmt.Fprintf(out, "%d %d\n", count, cpu.Nanoseconds())
			if out.Flush() != nil {
				return
			}
		}
	}
}

// threadCPU is the CPU time the calling thread has used.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, threadClock, uintptr(unsafe.Pointer(&ts)), 0) // bmaclint:allow errdiscard (cannot fail for this clock and a valid pointer)
	return time.Duration(ts.Nano())
}
