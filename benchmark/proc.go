package main

import (
	"runtime"
	"syscall"
	"time"
)

// usage is the process's resource consumption between two points: CPU time
// from getrusage, allocation and GC figures from the Go runtime.
type usage struct {
	CPU        time.Duration
	Mallocs    uint64
	AllocBytes uint64
	GCPause    time.Duration
	HeapPeak   uint64 // highest heap in use seen at a sampling point
}

func readUsage() usage {
	var ru syscall.Rusage
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	u := usage{
		Mallocs: mem.Mallocs, AllocBytes: mem.TotalAlloc,
		GCPause: time.Duration(mem.PauseTotalNs), HeapPeak: mem.HeapInuse,
	}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return u
}

// sub is the consumption since an earlier reading; the heap peak is the
// later reading's.
func (u usage) sub(o usage) usage {
	return usage{
		CPU: u.CPU - o.CPU, Mallocs: u.Mallocs - o.Mallocs, AllocBytes: u.AllocBytes - o.AllocBytes,
		GCPause: u.GCPause - o.GCPause, HeapPeak: max(u.HeapPeak, o.HeapPeak),
	}
}

func (u usage) add(o usage) usage {
	return usage{
		CPU: u.CPU + o.CPU, Mallocs: u.Mallocs + o.Mallocs, AllocBytes: u.AllocBytes + o.AllocBytes,
		GCPause: u.GCPause + o.GCPause, HeapPeak: max(u.HeapPeak, o.HeapPeak),
	}
}

// procMetrics reports a measured section's consumption per transaction.
func procMetrics(m map[string]value, u usage, txs int) {
	ftx := float64(txs)
	m["proc.cpu_us_per_tx"] = value{Value: ratio(us(u.CPU), ftx), N: txs}
	m["proc.allocs_per_tx"] = value{Value: ratio(float64(u.Mallocs), ftx), N: txs}
	m["proc.alloc_bytes_per_tx"] = value{Value: ratio(float64(u.AllocBytes), ftx), N: txs}
	m["proc.gc_pause_ms"] = value{Value: ms(u.GCPause), N: 1}
	m["proc.heap_peak_mb"] = value{Value: float64(u.HeapPeak) / (1 << 20), N: 1}
}
