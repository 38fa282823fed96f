package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The box the benchmark runs on is a small VM on a shared host, and what
// its neighbours do changes, for seconds to minutes at a time, what code
// costs on it: the same bytes cost soundserve 25–35 % more CPU seconds,
// and every latency rises with them. No statistic taken inside a run
// removes a slowdown that outlasts the run, so the run measures it
// instead. hostProbe runs one thread per CPU that, every few
// milliseconds, makes a fixed number of kernel round trips (one byte
// written to and read back from its own pipe) and adds up what they cost
// in the thread's own CPU time — the accounting the child's CPU seconds
// come from. A timed stretch's mean cost over probeRefNs is its host
// index, and every timing is reported as it would read at index 1: a time
// divided by the index of its stretch, a rate multiplied by it.
//
// Why kernel round trips: across 30–40 saturation bursts per workload
// their cost moved with the child's CPU per point by r = 0.70–0.94 on
// all four workloads and in proportion to it (exponent 0.8–1.1), while a
// tight arithmetic loop (r = 0.5–0.85) and a pointer chase (r = 0.2–0.7)
// followed it less: what the neighbours take away is mostly cache and
// front end, which code with a large footprint feels and a small loop
// does not.
type hostProbe struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	ns, n atomic.Int64 // thread CPU ns spent in, and count of, probe units
}

const (
	probeTrips  = 100 // write+read pairs per unit
	probePeriod = 5 * time.Millisecond
	// probeRefNs is what one unit costs on the reference box (2 shared
	// vCPUs of a Xeon @ 2.1 GHz) in its calm state; at about 65 µs per
	// 5 ms the probe takes 1.3 % of each CPU.
	probeRefNs = 65_000.0
)

// threadCPUNs is the calling thread's CPU time.
func threadCPUNs() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}

// startProbe starts one probing thread per CPU, pinned to it where the
// kernel allows.
func startProbe() (*hostProbe, error) {
	p := &hostProbe{stop: make(chan struct{})}
	for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
		var pipe [2]int
		if err := syscall.Pipe(pipe[:]); err != nil {
			p.close()
			return nil, err
		}
		p.wg.Add(1)
		go p.run(cpu, pipe[0], pipe[1])
	}
	return p, nil
}

func (p *hostProbe) run(cpu, r, w int) {
	defer p.wg.Done()
	defer syscall.Close(r)
	defer syscall.Close(w)
	// Pinned for the probe's lifetime, then restored and handed back: a
	// locked goroutine that simply returned would end its thread, and a
	// child started from that thread (Pdeathsig) with it.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var all, one [16]uint64 // room for 1024 CPUs
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(all), uintptr(unsafe.Pointer(&all))); errno == 0 {
		one[cpu/64%len(one)] = 1 << (uint(cpu) % 64)
		// Where pinning is refused the probe still runs, on whichever CPU
		// the kernel gives it.
		if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno == 0 {
			defer syscall.Syscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(all), uintptr(unsafe.Pointer(&all)))
		}
	}
	var b [1]byte
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		c0 := threadCPUNs()
		for i := 0; i < probeTrips; i++ {
			// One byte into an empty pipe and out again: neither call can
			// block, and a failed one only makes the unit cheaper.
			_, _ = syscall.Write(w, b[:])
			_, _ = syscall.Read(r, b[:])
		}
		p.ns.Add(threadCPUNs() - c0)
		p.n.Add(1)
		sleepPrecisely(probePeriod)
	}
}

// probeMark is the probe's running totals at one moment.
type probeMark struct{ ns, n int64 }

// mark reads the probe, to take the host index of a timed stretch from
// its two ends. Without a probe (the tests) every mark is zero.
func (p *hostProbe) mark() probeMark {
	if p == nil {
		return probeMark{}
	}
	// A unit that completes between the two loads is counted with a cost
	// a few hundredths of a percent off; not worth a lock.
	return probeMark{ns: p.ns.Load(), n: p.n.Load()}
}

// index is the host index of the stretch between two marks: the mean
// cost of the probe units completed in it over the reference cost. A
// stretch too short to hold a unit, or one without a probe, reports 1.
func (p *hostProbe) index(from, to probeMark) float64 {
	if to.n == from.n {
		return 1
	}
	return float64(to.ns-from.ns) / float64(to.n-from.n) / probeRefNs
}

// close stops the probe's threads and waits for them.
func (p *hostProbe) close() {
	close(p.stop)
	p.wg.Wait()
}
